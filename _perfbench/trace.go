package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"securexml/internal/access"
	"securexml/internal/core"
	"securexml/internal/journal"
	"securexml/internal/obs"
	"securexml/internal/policy"
	"securexml/internal/qfilter"
	"securexml/internal/rewrite"
	"securexml/internal/view"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
	"securexml/internal/xupdate"
)

// writeProbeMax bounds how many acknowledged HTTP writes of the traced
// half are replayed through the timed write-layer path; on the staff-scan
// document one such replay costs about a third of a second.
const writeProbeMax = 24

// lookupReps is how many registry lookups one obs.counter_lookup_us sample
// averages, so each sample is well above the timer's resolution.
const lookupReps = 64

// samples collects per-layer timings (µs) from several goroutines.
type samples struct {
	mu sync.Mutex
	m  map[string][]float64
}

func (s *samples) add(name string, us float64) {
	s.mu.Lock()
	s.m[name] = append(s.m[name], us)
	s.mu.Unlock()
}

// p50 is the median of a series and its sample count.
func (s *samples) p50(name string) (float64, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return median(s.m[name]), len(s.m[name])
}

// usSince is the time since t in microseconds.
func usSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Microsecond) }

// tracer holds the traced run's state. The benchmark adds no spans inside
// the program: every layer figure comes from timing a call into the
// layer's public function, on the benchmark's own copy of the state. The
// traced half of the load only records each read (its request, the tier
// that served it, whether a write had invalidated the user's memo since
// the user's last read); the layer probes replay those records once the
// load has stopped, so probing steals no CPU from the measured requests.
type tracer struct {
	r    *runner
	e    *env
	twin *core.Database // same snapshot, auditing off (core.audit_us)
	eng  *rewrite.Engine
	// snaps are two frozen copies of the generated document: alternating
	// between them gives the rewrite memo a new snapshot (cold) on demand.
	snaps [2]*xmltree.Document
	s     samples
	// writes counts acknowledged writes; writeAlt alternates HTTP and
	// direct writes separately per operation count, so both halves get the
	// same write mix (writer goroutine only).
	writes   atomic.Int64
	writeAlt [3]int
	lastHTTP bool // the write just performed went over HTTP
	lastOps  int  // and its operation count
	acked    []ackedWrite
	clients  []*clientState
}

// ackedWrite is how one acknowledged traced write went, in
// acknowledgement order.
type ackedWrite struct {
	http          bool
	e2eUs, lateUs float64
}

// clientState is one reader goroutine's recording state.
type clientState struct {
	alt       map[refKey]int   // per-request alternation between HTTP and direct
	lastWrite map[string]int64 // user -> writes count at its last read
	recs      []readRec
}

// readRec is one traced read, as the replay needs it.
type readRec struct {
	req  ReadReq
	tier string
	cold bool // a write was acknowledged since this user's previous read
}

func newTracer(r *runner, e *env) (*tracer, error) {
	twin, err := core.Open(bytes.NewReader(r.in.Snapshot), core.WithAuditLimit(0))
	if err != nil {
		return nil, err
	}
	t := &tracer{r: r, e: e, twin: twin, eng: rewrite.NewEngine(r.in.Policy, r.in.Subjects),
		s: samples{m: map[string][]float64{}}}
	for i := range t.snaps {
		t.snaps[i] = r.in.Doc.Clone()
		t.snaps[i].Freeze()
	}
	for c := 0; c < r.in.Spec.Readers; c++ {
		t.clients = append(t.clients, &clientState{alt: map[refKey]int{}, lastWrite: map[string]int64{}})
	}
	return t, nil
}

// hooks alternates each distinct request, and each write size, between
// HTTP and a direct call into core, so server.overhead_us compares the
// same mix, and records every read for the replay.
func (t *tracer) hooks() *hooks {
	return &hooks{
		read: func(c int, req ReadReq) readRes {
			st := t.clients[c]
			k := keyOf(req)
			st.alt[k]++
			if st.alt[k]%2 == 1 {
				rr, err := t.r.get(t.e, req)
				if err != nil {
					return readRes{status: http.StatusBadGateway, body: []byte(err.Error())}
				}
				return rr
			}
			s, err := t.e.db.SharedSession(req.User)
			if err != nil {
				return readRes{status: http.StatusForbidden, body: []byte(err.Error())}
			}
			rr := directRead(s, req)
			rr.direct = true
			return rr
		},
		afterRead: func(c int, req ReadReq, res readRes, ms float64) {
			if res.status != http.StatusOK {
				return
			}
			if res.direct {
				t.s.add("direct.read_us", ms*1000)
			} else {
				t.s.add("http.read_us", ms*1000)
			}
			st := t.clients[c]
			n := t.writes.Load()
			last, seen := st.lastWrite[req.User]
			st.lastWrite[req.User] = n
			// A user not yet seen in this half last read before it; under
			// churn a write has moved the snapshot since.
			cold := last != n || (!seen && t.r.in.Spec.WriteRate > 0)
			st.recs = append(st.recs, readRec{req: req, tier: res.tier, cold: cold})
		},
		write: func(w WriteReq) (int, []byte, error) {
			t.lastOps = w.Ops
			t.writeAlt[w.Ops%3]++
			t.lastHTTP = t.writeAlt[w.Ops%3]%2 == 1
			if t.lastHTTP {
				return t.r.post(t.e, w)
			}
			t0 := time.Now()
			s, err := t.e.db.SharedSession(writerUser)
			if err != nil {
				return 0, nil, err
			}
			results, err := s.ApplyCtx(context.Background(), w.Body)
			if err != nil {
				return http.StatusBadRequest, []byte(err.Error()), nil
			}
			t.s.add("direct.write_us", usSince(t0))
			if w.Ops == 1 {
				t.s.add("direct.write1_us", usSince(t0))
			}
			var b strings.Builder
			for i, res := range results {
				fmt.Fprintf(&b, "op %d: selected=%d applied=%d created=%d removed=%d skipped=%d\n",
					i+1, res.Selected, res.Applied, res.Created, res.Removed, len(res.Skipped))
			}
			return http.StatusOK, []byte(b.String()), nil
		},
		afterWrite: func(ms, lateMs float64, ok bool) {
			t.writes.Add(1)
			if !ok {
				return
			}
			t.acked = append(t.acked, ackedWrite{http: t.lastHTTP, e2eUs: ms * 1000, lateUs: lateMs * 1000})
			if t.lastHTTP && t.lastOps == 1 {
				t.s.add("http.write1_us", (ms-lateMs)*1000)
			}
		},
	}
}

// directRead serves req through the public core API and renders the
// answer exactly as the server would, so the same oracle checks it.
func directRead(s *core.Session, req ReadReq) readRes {
	ctx := context.Background()
	fail := func(err error) readRes {
		return readRes{status: http.StatusInternalServerError, body: []byte(err.Error())}
	}
	switch req.Kind {
	case kindView:
		x, err := s.ViewXMLCtx(ctx)
		if err != nil {
			return fail(err)
		}
		return readRes{status: http.StatusOK, tier: core.TierView.String(), body: []byte(x)}
	case kindValue:
		v, tier, err := s.QueryValueTierCtx(ctx, req.Expr, core.TierAuto)
		if err != nil {
			return fail(err)
		}
		return readRes{status: http.StatusOK, tier: tier.String(), body: []byte(v.Str() + "\n")}
	default:
		rs, tier, err := s.QueryTierCtx(ctx, req.Expr, core.TierAuto)
		if err != nil {
			return fail(err)
		}
		var b strings.Builder
		for _, x := range rs {
			writeRow(&b, x.Path, x.Kind, x.Value)
		}
		return readRes{status: http.StatusOK, tier: tier.String(), body: []byte(b.String())}
	}
}

// timed runs f and returns its duration in µs.
func timed(f func()) float64 {
	t0 := time.Now()
	f()
	return usSince(t0)
}

// replayReads probes the layers for the recorded reads, taking the
// clients' records in turn, until all are done or budget has elapsed.
func (t *tracer) replayReads(budget time.Duration) {
	p := &readProber{t: t, lastSnap: map[string]int{}, views: map[string]*view.View{}, cache: policy.NewRuleCache()}
	deadline := time.Now().Add(budget)
	for i := 0; time.Now().Before(deadline); i++ {
		more := false
		for _, st := range t.clients {
			if i < len(st.recs) {
				more = true
				p.probe(st.recs[i])
			}
		}
		if !more {
			return
		}
	}
}

// readProber holds the replay's caches.
type readProber struct {
	t        *tracer
	lastSnap map[string]int // user -> snaps index its rewrite memo last saw
	views    map[string]*view.View
	cache    *policy.RuleCache
}

// probe times every layer the read could have used and records the time
// of the path the server actually took (its tier) as the read's attributed
// layer time.
func (p *readProber) probe(rec readRec) {
	t, req := p.t, rec.req
	in := t.r.in

	// Audit: the same warm call on the served database and on its
	// audit-off twin (each called twice, the second timed).
	main, _ := t.e.db.SharedSession(req.User)
	twin, _ := t.twin.SharedSession(req.User)
	directRead(main, req)
	t.s.add("core.query_audit_on_us", timed(func() { directRead(main, req) }))
	directRead(twin, req)
	t.s.add("core.query_audit_off_us", timed(func() { directRead(twin, req) }))

	lookup := timed(func() {
		for i := 0; i < lookupReps; i++ {
			obs.Default().Counter("xmlsec_session_ops_total", "op", "query", "outcome", "ok")
		}
	}) / lookupReps
	t.s.add("obs.counter_lookup_us", lookup)
	path := lookup // sessionOp's lookup is on every core path

	vars := xpath.Vars{"USER": xpath.String(req.User)}
	snap := t.snaps[0]
	v := p.views[req.User]
	if v == nil {
		pm, err := in.Policy.Evaluate(snap, in.Subjects, req.User)
		if err != nil {
			return
		}
		v = view.Materialize(snap, pm)
		p.views[req.User] = v
	}
	if req.Kind == kindView {
		us := timed(func() { _ = v.Doc.XML() })
		t.s.add("xmltree.serialize_us", us)
		t.s.add("read.path_us", path+us)
		return
	}

	var comp *xpath.Compiled
	compileUs := timed(func() { comp, _ = xpath.Compile(req.Expr) })
	t.s.add("xpath.compile_us", compileUs)
	if comp == nil {
		return
	}
	selectView := timed(func() { evalOn(comp, v.Doc.Root(), vars, nil, req.Kind) })
	t.s.add("xpath.select_view_us", selectView)

	var pg *rewrite.Program
	var pl *rewrite.Plan
	planUs := timed(func() {
		if pg, _ = t.eng.ProgramFor(req.User); pg != nil {
			pl, _ = pg.PlanFor(req.Expr)
		}
	})
	t.s.add("rewrite.plan_us", planUs)
	var coldUs, warmUs float64
	if pl != nil && pl.Mode != rewrite.PlanEmpty {
		// The user's memo last saw snaps[lastSnap]; the other copy is a new
		// snapshot to it, exactly like a freshly published generation.
		other := 1 - p.lastSnap[req.User]
		p.lastSnap[req.User] = other
		run := func() {
			var sec *xpath.Security
			if pl.Mode == rewrite.PlanGuarded {
				sec, _ = pg.SecurityFor(req.User, vars, t.snaps[other])
			}
			if req.Kind == kindValue {
				pl.Eval(t.snaps[other].Root(), vars, sec)
			} else {
				pl.Select(t.snaps[other].Root(), vars, sec)
			}
		}
		coldUs = timed(run)
		warmUs = timed(run)
		t.s.add("rewrite.select_cold_us", coldUs)
		t.s.add("rewrite.select_warm_us", warmUs)
	}

	var pm *policy.Perms
	t.s.add("policy.evaluate_shared_cold_us", timed(func() {
		pm, _ = in.Policy.EvaluateShared(snap, in.Subjects, req.User, policy.NewRuleCache())
	}))
	sharedWarm := timed(func() { pm, _ = in.Policy.EvaluateShared(snap, in.Subjects, req.User, p.cache) })
	t.s.add("policy.evaluate_shared_warm_us", sharedWarm)
	if pm == nil {
		return
	}
	qf := timed(func() { evalOn(comp, snap.Root(), vars, qfilter.ForPerms(pm), req.Kind) })
	t.s.add("qfilter.select_us", qf)

	switch rec.tier {
	case core.TierRewrite.String():
		if rec.cold {
			path += planUs + coldUs
		} else {
			path += planUs + warmUs
		}
	case core.TierQfilter.String():
		path += sharedWarm + compileUs + qf
	default:
		path += compileUs + selectView
	}
	t.s.add("read.path_us", path)
}

// evalOn evaluates a compiled expression as a query (node-set) or a value,
// under sec when it is non-nil. Only its duration matters: the answer was
// already checked when the load generator served the same request.
func evalOn(c *xpath.Compiled, root *xmltree.Node, vars xpath.Vars, sec *xpath.Security, kind string) {
	switch {
	case sec == nil && kind == kindValue:
		c.Eval(root, vars)
	case sec == nil:
		c.Select(root, vars)
	case kind == kindValue:
		c.EvalFiltered(root, vars, sec)
	default:
		c.SelectFiltered(root, vars, sec)
	}
}

// writeProber replays acknowledged writes through the write path's layers
// one public call at a time, on the mirror: parse, then per operation the
// commit's clone, the reference policy evaluation, the view
// materialization and the secured executor (whose self time excludes the
// evaluation and materialization it repeats), then coalescing, a journal
// append, and incremental maintenance of a staff view.
type writeProber struct {
	t     *tracer
	jw    *journal.Writer
	jf    *os.File
	maint *view.Maintainer
	v     *view.View
	pm    *policy.Perms
}

func (t *tracer) newWriteProber(m *mirror) (*writeProber, error) {
	jf, err := os.Create(filepath.Join(t.r.dir, "probe-journal.log"))
	if err != nil {
		return nil, err
	}
	wp := &writeProber{t: t, jw: journal.NewWriter(jf, 0), jf: jf}
	in := t.r.in
	if m, ok := view.NewMaintainer(in.Policy, in.Subjects, writerUser); ok {
		wp.maint = m
	}
	return wp, wp.rebase(m)
}

// rebase re-derives the maintained view from the mirror (untimed).
func (wp *writeProber) rebase(m *mirror) error {
	in := wp.t.r.in
	pm, err := in.Policy.Evaluate(m.doc, in.Subjects, writerUser)
	if err != nil {
		return err
	}
	wp.pm, wp.v = pm, view.Materialize(m.doc, pm)
	return nil
}

func (wp *writeProber) apply(m *mirror, w WriteReq) error {
	in := wp.t.r.in
	s := &wp.t.s
	ctx := context.Background()
	var ops []*xupdate.Op
	var err error
	total := timed(func() { ops, err = xupdate.ParseModificationsString(w.Body) })
	s.add("xupdate.parse_us", total)
	if err != nil {
		return err
	}
	var deltas []xupdate.Delta
	for _, op := range ops {
		var clone *xmltree.Document
		cloneUs := timed(func() { clone = m.doc.Clone() })
		// The executor runs first; the evaluation and materialization it
		// repeats are then timed on the same document in the same cache
		// state, so their difference is the executor's self time.
		var res *xupdate.Result
		execUs := timed(func() {
			res, _, err = access.ExecuteWithVarsCtx(ctx, clone, in.Subjects, in.Policy, writerUser, op, nil)
		})
		if err != nil {
			return err
		}
		var pm *policy.Perms
		evalUs := timed(func() { pm, err = in.Policy.Evaluate(clone, in.Subjects, writerUser) })
		if err != nil {
			return err
		}
		matUs := timed(func() { view.Materialize(clone, pm) })
		if res.Applied != 1 {
			return fmt.Errorf("write probe: %s applied %d nodes, want 1", op.Kind, res.Applied)
		}
		self := execUs - evalUs - matUs
		s.add("xmltree.clone_us", cloneUs)
		s.add("policy.evaluate_us", evalUs)
		s.add("view.materialize_us", matUs)
		s.add("access.execute_us", self)
		total += cloneUs + evalUs + matUs + self
		deltas = append(deltas, res.Deltas...)
		m.doc = clone
	}
	var merged []xupdate.Delta
	co := timed(func() { merged = xupdate.Coalesce(deltas) })
	s.add("xupdate.coalesce_us", co)
	var jerr error
	ja := timed(func() { _, jerr = wp.jw.AppendCtx(ctx, writerUser, w.Body) })
	if jerr != nil {
		return jerr
	}
	s.add("journal.append_us", ja)
	s.add("write.path_us", total+co+ja)
	if wp.maint != nil {
		var ierr error
		s.add("view.incremental_us", timed(func() { ierr = wp.maint.Apply(wp.v, m.doc, wp.pm, merged) }))
		if ierr != nil {
			return wp.rebase(m)
		}
	}
	return nil
}

func (wp *writeProber) close() error { return wp.jf.Close() }

// counterSet is the registry counters the traced run reads, summed per
// name (and per label value where noted).
type counterSet map[string]float64

// readCounters sums the registry's series the per-layer ratios need.
func readCounters() counterSet {
	cs := counterSet{}
	snap := obs.Default().Snapshot()
	for _, c := range snap.Counters {
		v := float64(c.Value)
		switch c.Name {
		case "xmlsec_query_tier_total":
			cs["tier."+c.Labels["tier"]] += v
			cs["tier"] += v
		case "xmlsec_view_cache_hits_total", "xmlsec_view_cache_misses_total",
			"xmlsec_rewrite_fallback_total", "xmlsec_policy_rulecache_hits_total",
			"xmlsec_policy_rulecache_misses_total", "xmlsec_view_incremental_applied_total",
			"xmlsec_view_incremental_fallback_total", "xmlsec_journal_appended_bytes_total":
			cs[c.Name] += v
		}
	}
	for _, h := range snap.Histograms {
		if h.Name == "xmlsec_commit_batch_size" {
			cs["commit.rounds"] += float64(h.Count)
			cs["commit.writes"] += h.Sum
		}
	}
	return cs
}

// sub returns cs - base per key.
func (cs counterSet) sub(base counterSet) counterSet {
	out := counterSet{}
	for k, v := range cs {
		out[k] = v - base[k]
	}
	return out
}

// ratio is a/(a+b), or 0 with no events.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// runTraced is the traced run. The window is split in two halves: the
// first is untraced (HTTP only) and supplies the counter-derived ratios
// and the untraced end-to-end medians; the second alternates operations
// between HTTP and direct core calls and records each read. Once the load
// has stopped, the recorded reads are replayed through the read-path
// layers (for up to a quarter of the window) and the second half's acknowledged
// writes through the write-path layers, on the benchmark's own copy.
// Read-only workloads run both read halves before their write probe, so
// every read sees the generated document.
func runTraced(sp Spec, seed int64, window time.Duration, workdir string) (*report, error) {
	r, err := prepare(sp, seed, window, workdir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.dir)
	e, _, err := r.setUp(0)
	if err != nil {
		return nil, err
	}
	defer r.client.CloseIdleConnections()
	defer e.close()
	t, err := newTracer(r, e)
	if err != nil {
		return nil, err
	}
	half := window / 2
	split := len(r.in.Writes) / 2
	if sp.WriteRate > 0 {
		split = writesFor(sp, half)
	}
	writesA, writesB := r.in.Writes[:split], r.in.Writes[split:]
	h := t.hooks()

	// Phase A (untraced) is measured as counter deltas; with a write probe
	// those are the read half plus the probe's untraced half.
	c0 := readCounters()
	gen0 := e.db.Stats().Generation
	resA, err := r.readLoad(e, half, seed, writesA, nil)
	if err != nil {
		return nil, err
	}
	dA := readCounters().sub(c0)
	gens := e.db.Stats().Generation - gen0
	resB, err := r.readLoad(e, half, seed+1, writesB, h)
	if err != nil {
		return nil, err
	}
	wA, wB := resA, resB
	if sp.WriteRate == 0 {
		c1 := readCounters()
		gen1 := e.db.Stats().Generation
		if wA, err = r.writeProbe(e, writesA, nil); err != nil {
			return nil, err
		}
		for k, v := range readCounters().sub(c1) {
			dA[k] += v
		}
		gens += e.db.Stats().Generation - gen1
		if wB, err = r.writeProbe(e, writesB, h); err != nil {
			return nil, err
		}
	}

	t.replayReads(window / 4)
	m := newMirror(r.in, sp.WriteRate > 0)
	for _, w := range wA.acked {
		if err := m.apply(w); err != nil {
			return nil, err
		}
	}
	wp, err := t.newWriteProber(m)
	if err != nil {
		return nil, err
	}
	defer wp.close()
	// The write-layer probe replays HTTP writes only, so the
	// reconciliation compares the layer path and the end-to-end time of the
	// same writes (medians of the one/two-operation mix move with it).
	probed := 0
	for i, w := range wB.acked {
		if a := t.acked[i]; a.http && probed < writeProbeMax {
			probed++
			err = wp.apply(m, w)
			t.s.add("probe.write_e2e_us", a.e2eUs)
			t.s.add("probe.write_late_us", a.lateUs)
		} else {
			err = m.apply(w)
		}
		if err != nil {
			return nil, err
		}
	}
	if err := r.checkState(e, m, sp.WriteRate > 0); err != nil {
		r.acct.add(false, err.Error)
	}

	rp := &report{metrics: map[string]metric{}, extra: map[string]any{}}
	rp.attempted, rp.failed, rp.reasons = r.acct.snapshot()
	rp.correct = rp.failed == 0
	t.layerMetrics(rp, resA, wA, dA, gens)
	return rp, nil
}

// layerMetrics derives the per-layer metrics and the reconciliation.
func (t *tracer) layerMetrics(rp *report, resA, wA *loadResult, dA counterSet, gens uint64) {
	s := &t.s
	us := func(name string) {
		v, n := s.p50(name)
		rp.set(name, v, "us", n)
	}
	httpRead, nHTTP := s.p50("http.read_us")
	directRead, nDirect := s.p50("direct.read_us")
	serverRead := httpRead - directRead
	rp.set("server.overhead_us", serverRead, "us", min(nHTTP, nDirect))
	// The server's cost per write does not depend on its size, so the
	// HTTP-minus-direct difference is taken on single-operation writes
	// only: a median of the 1-op/2-op mixture would swing between modes.
	httpWrite1, nhw := s.p50("http.write1_us")
	directWrite1, ndw1 := s.p50("direct.write1_us")
	serverWrite := httpWrite1 - directWrite1
	rp.set("server.write_overhead_us", serverWrite, "us", min(nhw, ndw1))
	directWrite, ndw := s.p50("direct.write_us")
	us("obs.counter_lookup_us")
	on, non := s.p50("core.query_audit_on_us")
	off, _ := s.p50("core.query_audit_off_us")
	audit := on - off
	rp.set("core.audit_us", audit, "us", non)
	rp.set("core.query_us", directRead, "us", nDirect)
	rp.set("core.apply_us", directWrite, "us", ndw)

	tiers := dA["tier"]
	for _, tier := range []core.Tier{core.TierRewrite, core.TierQfilter, core.TierView} {
		rp.set("core.tier_share."+tier.String(), ratio(dA["tier."+tier.String()], tiers-dA["tier."+tier.String()]), "ratio", int(tiers))
	}
	hits, misses := dA["xmlsec_view_cache_hits_total"], dA["xmlsec_view_cache_misses_total"]
	rp.set("core.view_cache_hit_ratio", ratio(hits, misses), "ratio", int(hits+misses))
	batch := 0.0
	if dA["commit.rounds"] > 0 {
		batch = dA["commit.writes"] / dA["commit.rounds"]
	}
	rp.set("core.commit_batch_size", batch, "count", int(dA["commit.rounds"]))
	rp.set("core.generations", float64(gens), "count", 1)

	us("rewrite.plan_us")
	us("rewrite.select_warm_us")
	us("rewrite.select_cold_us")
	fb := dA["xmlsec_rewrite_fallback_total"]
	rp.set("rewrite.fallback_ratio", ratio(fb, tiers-fb), "ratio", int(tiers))
	us("qfilter.select_us")
	us("policy.evaluate_us")
	us("policy.evaluate_shared_cold_us")
	us("policy.evaluate_shared_warm_us")
	rh, rm := dA["xmlsec_policy_rulecache_hits_total"], dA["xmlsec_policy_rulecache_misses_total"]
	rp.set("policy.rulecache_hit_ratio", ratio(rh, rm), "ratio", int(rh+rm))
	us("view.materialize_us")
	us("view.incremental_us")
	ia, ifb := dA["xmlsec_view_incremental_applied_total"], dA["xmlsec_view_incremental_fallback_total"]
	rp.set("view.incremental_fallback_ratio", ratio(ifb, ia), "ratio", int(ia+ifb))
	us("xpath.compile_us")
	us("xpath.select_view_us")
	us("xmltree.serialize_us")
	us("access.execute_us")
	us("xmltree.clone_us")
	rp.set("xmltree.nodes", float64(t.r.in.Doc.Len()), "count", 1)
	us("xupdate.parse_us")
	us("xupdate.coalesce_us")
	us("journal.append_us")
	bpw := 0.0
	if n := len(wA.acked); n > 0 {
		bpw = dA["xmlsec_journal_appended_bytes_total"] / float64(n)
	}
	rp.set("journal.bytes_per_write", bpw, "bytes", len(wA.acked))

	// Reconciliation. Read: HTTP p50 = server.overhead + core.audit +
	// the attributed layer path + residual. Write: HTTP p50 from due time
	// = writer lateness + server.write_overhead + the write-layer path +
	// residual. Both hold exactly by construction; the residual is the
	// time no probed public call accounts for.
	readPath, nrp := s.p50("read.path_us")
	readResidual := httpRead - serverRead - audit - readPath
	rp.set("trace.read_residual_us", readResidual, "us", nrp)
	writeE2E, nwe := s.p50("probe.write_e2e_us")
	late, _ := s.p50("probe.write_late_us")
	writePath, nwp := s.p50("write.path_us")
	writeResidual := writeE2E - late - serverWrite - writePath
	rp.set("trace.write_residual_us", writeResidual, "us", min(nwe, nwp))
	untraced := quantile(resA.readLat, 0.5) * 1000
	rp.set("trace.overhead_pct", (httpRead-untraced)/untraced*100, "pct", nHTTP)
	rp.set("loadgen.writer_late_p90_ms", quantile(wA.lateMs, 0.9), "ms", len(wA.lateMs))
	rp.extra["layer_percentiles_us"] = s.percentiles()
	rp.extra["reconciliation"] = map[string]any{
		"read_untraced_p50_us":  untraced,
		"read_traced_p50_us":    httpRead,
		"read_self_times_us":    map[string]float64{"server": serverRead, "audit": audit, "layers": readPath, "residual": readResidual},
		"write_untraced_p50_us": quantile(wA.writeLat, 0.5) * 1000,
		"write_traced_p50_us":   writeE2E,
		"write_self_times_us":   map[string]float64{"late": late, "server": serverWrite, "layers": writePath, "residual": writeResidual},
	}
}

// percentiles reports each series' 10th, 25th, 50th, 75th and 90th
// percentiles, for reading a layer's spread next to its median.
func (s *samples) percentiles() map[string][5]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string][5]float64{}
	for k, v := range s.m {
		c := append([]float64(nil), v...)
		out[k] = [5]float64{quantile(c, 0.1), quantile(c, 0.25), quantile(c, 0.5), quantile(c, 0.75), quantile(c, 0.9)}
	}
	return out
}

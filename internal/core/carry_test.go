package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"securexml/internal/access"
	"securexml/internal/obs"
	"securexml/internal/policy"
	"securexml/internal/storage"
	"securexml/internal/subject"
	"securexml/internal/view"
	"securexml/internal/workload"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
	"securexml/internal/xupdate"
)

// The commit round's guarded writes must be indistinguishable from
// running every operation through the reference executor, which evaluates
// the policy and materializes the writer's view from scratch per
// operation (access.ExecuteWithVars). These tests pit the two against
// each other.

// refMirror replays writes through the reference executor.
type refMirror struct {
	doc *xmltree.Document
	h   *subject.Hierarchy
	pol *policy.Policy
}

// newRefMirror copies the database's current state.
func newRefMirror(db *Database) *refMirror {
	g := db.gen()
	return &refMirror{doc: g.doc.Clone(), h: g.subjects.Clone(), pol: g.policy.Clone()}
}

// view derives user's view of the mirror document from scratch.
func (m *refMirror) view(user string) (*view.View, error) {
	pm, err := m.pol.Evaluate(m.doc, m.h, user)
	if err != nil {
		return nil, err
	}
	return view.Materialize(m.doc, pm), nil
}

// apply replays a modification document with Session.Apply's semantics:
// variables bind on the writer's current view, and execution stops at the
// first hard error with the earlier operations kept.
func (m *refMirror) apply(user, mods string) ([]*xupdate.Result, error) {
	ops, err := xupdate.ParseModificationsString(mods)
	if err != nil {
		return nil, err
	}
	env := xpath.Vars{}
	results := make([]*xupdate.Result, 0, len(ops))
	for _, op := range ops {
		if op.Kind == xupdate.Variable {
			if err := op.Validate(); err != nil {
				return results, err
			}
			v, err := m.view(user)
			if err != nil {
				return results, err
			}
			val, err := op.BindVariable(v.Doc.Root(), mergeUser(env, user), nil)
			if err != nil {
				return results, err
			}
			env[op.VarName()] = val
			results = append(results, &xupdate.Result{})
			continue
		}
		res, _, err := access.ExecuteWithVars(m.doc, m.h, m.pol, user, op, env)
		if err != nil {
			return results, err
		}
		results = append(results, res)
	}
	return results, nil
}

// writeReq is one request of a round: an Apply by user, or (mods empty) a
// read grant, which moves the policy epoch mid-round.
type writeReq struct {
	ctx   context.Context // nil means context.Background()
	user  string
	mods  string
	grant string // path granted read to staff when mods is ""

	results []*xupdate.Result
	err     error
}

// run executes the request against the database.
func (r *writeReq) run(db *Database) {
	ctx := r.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if r.mods == "" {
		r.err = db.Grant(policy.Read, r.grant, "staff")
		return
	}
	s, err := db.SharedSession(r.user)
	if err != nil {
		r.err = err
		return
	}
	r.results, r.err = s.ApplyCtx(ctx, r.mods)
}

// replay executes the request against the mirror.
func (r *writeReq) replay(m *refMirror) ([]*xupdate.Result, error) {
	if r.mods == "" {
		return nil, m.pol.Grant(m.h, policy.Read, r.grant, "staff")
	}
	return m.apply(r.user, r.mods)
}

// stalledRound queues the requests behind a stalled commit leader, in
// order, so the leader applies them as one round; it returns once that
// round has been published.
func stalledRound(t *testing.T, db *Database, reqs []*writeReq) {
	t.Helper()
	stall := make(chan struct{})
	entered := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		db.submit(context.Background(), func(*commitCtx) {
			close(entered)
			<-stall
		})
	}()
	<-entered
	for i, r := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.run(db)
		}()
		deadline := time.Now().Add(5 * time.Second)
		for {
			db.commitMu.Lock()
			n := len(db.queue)
			db.commitMu.Unlock()
			if n == i+1 {
				break
			}
			if time.Now().After(deadline) {
				close(stall)
				t.Fatalf("request %d never queued", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	close(stall)
	wg.Wait()
}

// checkReq compares one request's outcome with the mirror's replay.
func checkReq(t *testing.T, label string, r *writeReq, m *refMirror) {
	t.Helper()
	want, wantErr := r.replay(m)
	if (r.err == nil) != (wantErr == nil) || (r.err != nil && r.err.Error() != wantErr.Error()) {
		t.Fatalf("%s: %s by %s: error %v, reference %v\n%s", label, "apply", r.user, r.err, wantErr, r.mods)
	}
	if r.mods != "" && !reflect.DeepEqual(r.results, want) {
		t.Fatalf("%s: %s results differ\ngot:  %s\nwant: %s\n%s", label, r.user, fmtResults(r.results), fmtResults(want), r.mods)
	}
}

func fmtResults(rs []*xupdate.Result) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "%+v; ", *r)
	}
	return b.String()
}

// checkState compares the source and every user's view with the mirror.
func checkState(t *testing.T, label string, db *Database, m *refMirror) {
	t.Helper()
	if !xmltree.Equal(db.gen().doc, m.doc) {
		t.Fatalf("%s: source differs\ngot:\n%s\nwant:\n%s", label, db.gen().doc.Sketch(), m.doc.Sketch())
	}
	for _, u := range m.h.Users() {
		s, err := db.SharedSession(u)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.View()
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.view(u)
		if err != nil {
			t.Fatal(err)
		}
		if !xmltree.Equal(got.Doc, want.Doc) || got.Restricted != want.Restricted || got.Hidden != want.Hidden {
			t.Fatalf("%s: %s's view differs\ngot:\n%s\nwant:\n%s", label, u, got.Doc.Sketch(), want.Doc.Sketch())
		}
	}
}

// genMods draws a modification document of one to four operations:
// position-addressed operations from the shared op stream, name-addressed
// multi-node operations, $USER-relative selects, xupdate:variable bindings
// consumed by value-of content, and value-of copies of view content.
func genMods(rng *rand.Rand, stream *workload.Stream) string {
	var b strings.Builder
	b.WriteString(`<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">`)
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		switch rng.Intn(7) {
		case 0, 1, 2:
			op, err := stream.Next()
			if err != nil {
				continue
			}
			s, err := xupdate.ModificationsString([]*xupdate.Op{op})
			if err != nil {
				panic(err)
			}
			lines := strings.Split(strings.TrimSpace(s), "\n")
			b.WriteString(strings.Join(lines[1:len(lines)-1], ""))
		case 3:
			fmt.Fprintf(&b, `<xupdate:variable name="v%d" select="/patients/*[%d]/diagnosis"/>`, i, 1+rng.Intn(4))
			fmt.Fprintf(&b, `<xupdate:append select="/patients/*[%d]"><note><xupdate:value-of select="$v%d"/></note></xupdate:append>`, 1+rng.Intn(4), i)
		case 4:
			multi := []string{
				`<xupdate:update select="//diagnosis">d%d</xupdate:update>`,
				`<xupdate:rename select="//note">memo%d</xupdate:rename>`,
				`<xupdate:remove select="//rec[%d]"/>`,
				`<xupdate:insert-before select="//service"><rec>s%d</rec></xupdate:insert-before>`,
				`<xupdate:insert-after select="/patients/*[2]/diagnosis"><rec><v>a%d</v></rec></xupdate:insert-after>`,
				`<xupdate:append select="//diagnosis"><rec>%d</rec></xupdate:append>`,
				`<xupdate:remove select="/patients/*[%d]/diagnosis/node()"/>`,
			}
			fmt.Fprintf(&b, multi[rng.Intn(len(multi))], 1+rng.Intn(3))
		case 5:
			fmt.Fprintf(&b, `<xupdate:update select="/patients/*[name() = $USER]/diagnosis">self%d</xupdate:update>`, rng.Intn(100))
		case 6:
			fmt.Fprintf(&b, `<xupdate:append select="/patients/*[%d]/diagnosis"><copy><xupdate:value-of select="/patients/*[%d]/diagnosis/node()"/></copy></xupdate:append>`, 1+rng.Intn(4), 1+rng.Intn(4))
		}
	}
	b.WriteString(`</xupdate:modifications>`)
	return b.String()
}

// installed returns a database holding a copy of doc, h and pol.
func installed(doc *xmltree.Document, h *subject.Hierarchy, pol *policy.Policy) *Database {
	db := New()
	db.install(doc.Clone(), h.Clone(), pol.Clone())
	return db
}

// hospitalFixture builds the workload hospital document and hierarchy.
func hospitalFixture(t *testing.T, patients int, seed int64) (*xmltree.Document, *subject.Hierarchy) {
	t.Helper()
	doc, err := workload.Hospital(workload.HospitalConfig{Patients: patients, RecordsPerPatient: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	h, err := workload.HospitalHierarchy(patients)
	if err != nil {
		t.Fatal(err)
	}
	return doc, h
}

// chainPaths are chain-only rule paths over the hospital document.
var chainPaths = []string{
	"/descendant-or-self::node()",
	"//diagnosis",
	"//diagnosis/node()",
	"//diagnosis/descendant-or-self::node()",
	"//service/node()",
	"/patients",
	"/patients/*",
	"/patients/*/descendant-or-self::node()",
	"/patients/*[name() = $USER]/descendant-or-self::node()",
	"//record/descendant-or-self::node()",
	"//rec/descendant-or-self::node()",
	"//note",
}

// randomChainPolicy draws a seeded chain-only policy: staff-wide read
// first, then accept/deny rules of every privilege for roles and users.
func randomChainPolicy(t *testing.T, rng *rand.Rand, h *subject.Hierarchy) *policy.Policy {
	t.Helper()
	pol := policy.New()
	if err := pol.Grant(h, policy.Read, "/descendant-or-self::node()", "staff"); err != nil {
		t.Fatal(err)
	}
	subjects := []string{"staff", "secretary", "doctor", "epidemiologist", "patient", "laporte", "beaufort", "p0"}
	for i := 0; i < 14; i++ {
		priv := policy.Privileges[rng.Intn(len(policy.Privileges))]
		path := chainPaths[rng.Intn(len(chainPaths))]
		subj := subjects[rng.Intn(len(subjects))]
		var err error
		if rng.Intn(4) == 0 {
			err = pol.Revoke(h, priv, path, subj)
		} else {
			err = pol.Grant(h, priv, path, subj)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return pol
}

// runDifferential drives seeded rounds of writes through the database and
// the mirror and compares every outcome. Rounds are single requests or
// stalled multi-request rounds that mix users, occasionally with a grant
// in the middle. Two writers are warm — their sessions hold a cached view,
// re-read and checked against the mirror between rounds — and the others
// are cold: their sessions never read before the final check.
func runDifferential(t *testing.T, db *Database, seed int64, rounds int) {
	t.Helper()
	m := newRefMirror(db)
	rng := rand.New(rand.NewSource(seed))
	stream := workload.OpStream(workload.OpConfig{Doc: m.doc, Seed: seed})
	warm := []string{"laporte", "p0"}
	readWarm := func(label, u string) {
		s, err := db.SharedSession(u)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.View()
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.view(u)
		if err != nil {
			t.Fatal(err)
		}
		if !xmltree.Equal(got.Doc, want.Doc) {
			t.Fatalf("%s: warm %s's view differs\ngot:\n%s\nwant:\n%s", label, u, got.Doc.Sketch(), want.Doc.Sketch())
		}
	}
	for _, u := range warm {
		readWarm(fmt.Sprintf("seed %d start", seed), u)
	}
	writers := []string{"laporte", "beaufort", "richard", "p0", "p1"}
	for round := 0; round < rounds; round++ {
		var reqs []*writeReq
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			reqs = append(reqs, &writeReq{user: writers[rng.Intn(len(writers))], mods: genMods(rng, stream)})
		}
		if len(reqs) > 1 && rng.Intn(6) == 0 {
			grant := &writeReq{user: "system", grant: chainPaths[rng.Intn(len(chainPaths))]}
			reqs = append(reqs[:1], append([]*writeReq{grant}, reqs[1:]...)...)
		}
		if len(reqs) == 1 {
			reqs[0].run(db)
		} else {
			stalledRound(t, db, reqs)
		}
		label := fmt.Sprintf("seed %d round %d", seed, round)
		for _, r := range reqs {
			checkReq(t, label, r, m)
		}
		if !xmltree.Equal(db.gen().doc, m.doc) {
			t.Fatalf("%s: source differs", label)
		}
		if rng.Intn(4) == 0 {
			readWarm(label, warm[rng.Intn(len(warm))])
		}
	}
	checkState(t, fmt.Sprintf("seed %d final", seed), db, m)
}

// TestCarriedViewMatchesReferencePaperPolicy runs the differential under
// the paper's policy.
func TestCarriedViewMatchesReferencePaperPolicy(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		doc, h := hospitalFixture(t, 6, seed)
		pol, err := workload.HospitalPolicy(h)
		if err != nil {
			t.Fatal(err)
		}
		runDifferential(t, installed(doc, h, pol), seed, 40)
	}
}

// TestCarriedViewMatchesReferenceRandomChainPolicies runs the differential
// under seeded random chain-only policies, which the incremental
// maintainer accepts for every user.
func TestCarriedViewMatchesReferenceRandomChainPolicies(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		doc, h := hospitalFixture(t, 6, seed)
		rng := rand.New(rand.NewSource(seed * 7919))
		pol := randomChainPolicy(t, rng, h)
		for _, u := range h.Users() {
			if _, ok := view.NewMaintainer(pol, h, u); !ok {
				t.Fatalf("seed %d: policy is not chain-only for %s", seed, u)
			}
		}
		runDifferential(t, installed(doc, h, pol), seed, 30)
	}
}

// TestCarriedViewMatchesReferenceNonChainPolicy runs the differential
// under a policy the incremental maintainer refuses for staff (a
// predicate on a sibling's content), so every carried view is re-derived.
func TestCarriedViewMatchesReferenceNonChainPolicy(t *testing.T) {
	doc, h := hospitalFixture(t, 6, 11)
	pol, err := workload.HospitalPolicy(h)
	if err != nil {
		t.Fatal(err)
	}
	if err := pol.Revoke(h, policy.Read, "//diagnosis[../service = 'oncology']/node()", "staff"); err != nil {
		t.Fatal(err)
	}
	if _, ok := view.NewMaintainer(pol, h, "laporte"); ok {
		t.Fatal("policy unexpectedly chain-only for laporte")
	}
	runDifferential(t, installed(doc, h, pol), 11, 30)
}

// guardSources returns the source annotation of every write_guard span
// in the trace, in order.
func guardSources(tr *obs.Trace) []string {
	var out []string
	var walk func(s *obs.TraceSpan)
	walk = func(s *obs.TraceSpan) {
		if s.Name == "write_guard" {
			out = append(out, s.Attrs["source"])
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(tr.Export().Root)
	return out
}

// TestCarriedRoundSeesEarlierWrites stalls the commit leader so one round
// holds, in order: beaufort's two-operation write adding a patient,
// laporte's write whose select depends on that insert, beaufort again, a
// laporte write that fails after a partial mutation (insert-before on an
// attribute node), and writes by both users after that version gap. Every
// outcome must match the reference, and the write_guard spans must show
// each path: the base snapshot's shared guard table for the round's
// first operation, a fill of the scratch document whenever an earlier
// operation moved it, and the carried read side when nothing moved.
func TestCarriedRoundSeesEarlierWrites(t *testing.T) {
	db := hospital(t)
	for _, g := range []struct {
		priv policy.Privilege
		path string
		subj string
	}{
		{policy.Insert, "//diagnosis/descendant-or-self::node()", "doctor"},
		{policy.Read, "//@*", "staff"},
	} {
		if err := db.Grant(g.priv, g.path, g.subj); err != nil {
			t.Fatal(err)
		}
	}
	m := newRefMirror(db)
	const wrap = `<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">%s</xupdate:modifications>`
	reqs := []*writeReq{
		{user: "beaufort", mods: fmt.Sprintf(wrap,
			`<xupdate:append select="/patients"><nina><service>oncology</service><diagnosis>flu</diagnosis></nina></xupdate:append>`+
				`<xupdate:append select="/patients"><ward/></xupdate:append>`)},
		{user: "laporte", mods: fmt.Sprintf(wrap,
			`<xupdate:append select="/patients/nina/diagnosis"><rec id="r1">first</rec></xupdate:append>`+
				`<xupdate:update select="/patients/nina/diagnosis/rec">second</xupdate:update>`)},
		{user: "beaufort", mods: fmt.Sprintf(wrap,
			`<xupdate:append select="/patients"><bed/></xupdate:append>`)},
		{user: "laporte", mods: fmt.Sprintf(wrap,
			`<xupdate:insert-before select="/patients/nina/diagnosis/node() | /patients/nina/diagnosis/rec/@id"><w/></xupdate:insert-before>`)},
		{user: "beaufort", mods: fmt.Sprintf(wrap,
			`<xupdate:append select="/patients"><bed/></xupdate:append>`)},
		{user: "laporte", mods: fmt.Sprintf(wrap,
			`<xupdate:variable name="d" select="string(/patients/nina/diagnosis/rec)"/>`+
				`<xupdate:append select="/patients/robert/diagnosis"><copy><xupdate:value-of select="$d"/></copy></xupdate:append>`)},
	}
	tracer := obs.NewTracer(16, time.Hour, nil)
	traces := make([]*obs.Trace, len(reqs))
	for i, r := range reqs {
		r.ctx, traces[i] = tracer.StartTrace(context.Background(), "apply")
	}
	stalledRound(t, db, reqs)

	for i, r := range reqs {
		checkReq(t, fmt.Sprintf("request %d", i), r, m)
	}
	if reqs[1].err != nil || reqs[1].results[0].Applied != 1 {
		t.Fatalf("laporte's select must see beaufort's insert: %v %s", reqs[1].err, fmtResults(reqs[1].results))
	}
	if reqs[3].err == nil {
		t.Fatal("insert-before on an attribute must fail")
	}
	checkState(t, "final", db, m)

	want := [][]string{
		{"snapshot_table", "scratch_fill"}, // base snapshot, then the moved scratch document
		{"scratch_fill", "scratch_fill"},   // each operation moved the document
		{"scratch_fill"},
		{"scratch_fill"},            // then fails after a partial mutation
		{"scratch_fill"},            // across the failed write's version gap
		{"scratch_fill", "carried"}, // the append reuses the variable's read side
	}
	for i, tr := range traces {
		if got := guardSources(tr); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("request %d: write_guard sources %v, want %v", i, got, want[i])
		}
	}
}

// TestCarriedViewRederivesAfterGrant puts a grant between two writes of
// one round: the second write must select and copy on the view the new
// policy gives, not on the read side carried from before the grant. A
// second round puts the grant first, so the write reads the base snapshot
// through the guard of an engine the round builds for its own policy;
// the service content it copies is hidden from the secretary before the
// grant.
func TestCarriedViewRederivesAfterGrant(t *testing.T) {
	db := hospital(t)
	if err := db.Revoke(policy.Read, "//service/node()", "secretary"); err != nil {
		t.Fatal(err)
	}
	m := newRefMirror(db)
	const wrap = `<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">%s</xupdate:modifications>`
	tracer := obs.NewTracer(4, time.Hour, nil)
	rounds := []struct {
		reqs func(ctx context.Context) []*writeReq
		want []string
	}{
		{func(ctx context.Context) []*writeReq {
			return []*writeReq{
				{user: "beaufort", mods: fmt.Sprintf(wrap, `<xupdate:append select="/patients"><ward/></xupdate:append>`)},
				{user: "system", grant: "//diagnosis/node()"},
				{ctx: ctx, user: "beaufort", mods: fmt.Sprintf(wrap,
					`<xupdate:append select="/patients"><copy><xupdate:value-of select="/patients/franck/diagnosis/node()"/></copy></xupdate:append>`)},
			}
		}, []string{"scratch_fill"}},
		{func(ctx context.Context) []*writeReq {
			return []*writeReq{
				{user: "system", grant: "//service/node()"},
				{ctx: ctx, user: "beaufort", mods: fmt.Sprintf(wrap,
					`<xupdate:append select="/patients"><copy><xupdate:value-of select="/patients/robert/service/node()"/></copy></xupdate:append>`)},
			}
		}, []string{"snapshot_table"}},
	}
	for i, r := range rounds {
		ctx, tr := tracer.StartTrace(context.Background(), "apply")
		reqs := r.reqs(ctx)
		stalledRound(t, db, reqs)
		for j, req := range reqs {
			checkReq(t, fmt.Sprintf("round %d request %d", i, j), req, m)
		}
		checkState(t, fmt.Sprintf("round %d", i), db, m)
		if got := guardSources(tr); !reflect.DeepEqual(got, r.want) {
			t.Errorf("round %d: write_guard sources after the grant: %v, want %v", i, got, r.want)
		}
	}
}

// TestSecuredWritesDoNotRederive pins the O(delta) property: on a warm
// 5,002-node hospital database, single-operation writes select on the
// writer's cached view, patched from the delta log, and never run the
// reference evaluator or a full materialization.
func TestSecuredWritesDoNotRederive(t *testing.T) {
	db := openHospital(t, 1000)
	if n, err := db.WarmSessions(context.Background(), []string{"laporte"}, 1); err != nil || n != 1 {
		t.Fatalf("warm: %d %v", n, err)
	}
	s, err := db.SharedSession("laporte")
	if err != nil {
		t.Fatal(err)
	}
	materializations := obs.Default().Counter("xmlsec_view_materializations_total")
	evaluations := obs.Stage("policy_evaluate")
	m0, e0 := materializations.Value(), evaluations.Count()
	for i := 0; i < 50; i++ {
		res, err := s.Update(&xupdate.Op{
			Kind:     xupdate.Update,
			Select:   fmt.Sprintf("/patients/p%d/diagnosis", i*7),
			NewValue: fmt.Sprintf("revised-%d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Applied != 1 {
			t.Fatalf("write %d: %+v", i, *res)
		}
	}
	if m, e := materializations.Value()-m0, evaluations.Count()-e0; m != 0 || e != 0 {
		t.Errorf("50 warm writes ran %d materializations and %d reference evaluations, want 0 and 0", m, e)
	}
}

// TestColdSecuredWritesDoNotRederive is TestSecuredWritesDoNotRederive
// for a writer whose session never read: it holds no view to select on,
// and its writes still run no materialization and no policy evaluation
// over the document — the targets are selected through the guard table
// and decided node by node.
func TestColdSecuredWritesDoNotRederive(t *testing.T) {
	db := openHospital(t, 1000)
	s, err := db.Session("laporte")
	if err != nil {
		t.Fatal(err)
	}
	materializations := obs.Default().Counter("xmlsec_view_materializations_total")
	evaluations := obs.Stage("policy_evaluate")
	shared := obs.Stage("policy_evaluate_shared")
	m0, e0, s0 := materializations.Value(), evaluations.Count(), shared.Count()
	for i := 0; i < 50; i++ {
		res, err := s.Update(&xupdate.Op{
			Kind:     xupdate.Update,
			Select:   fmt.Sprintf("/patients/p%d/diagnosis", i*7),
			NewValue: fmt.Sprintf("revised-%d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Applied != 1 {
			t.Fatalf("write %d: %+v", i, *res)
		}
	}
	if m, e, sh := materializations.Value()-m0, evaluations.Count()-e0, shared.Count()-s0; m != 0 || e != 0 || sh != 0 {
		t.Errorf("50 cold writes ran %d materializations, %d reference and %d shared-scan evaluations, want 0, 0 and 0", m, e, sh)
	}
}

// TestNonChainSecuredWritesDoNotMaterialize: under a policy outside the
// chain-only fragment for the writer (a predicate on a sibling's
// content), writes select through the shared-scan permission relation
// as a filter, still without materializing a view.
func TestNonChainSecuredWritesDoNotMaterialize(t *testing.T) {
	doc, h := hospitalFixture(t, 50, 3)
	pol, err := workload.HospitalPolicy(h)
	if err != nil {
		t.Fatal(err)
	}
	if err := pol.Revoke(h, policy.Read, "//diagnosis[../service = 'oncology']/node()", "staff"); err != nil {
		t.Fatal(err)
	}
	if _, ok := pol.NodeEvaluator(h, "laporte"); ok {
		t.Fatal("policy unexpectedly chain-only for laporte")
	}
	db := installed(doc, h, pol)
	s, err := db.Session("laporte")
	if err != nil {
		t.Fatal(err)
	}
	materializations := obs.Default().Counter("xmlsec_view_materializations_total")
	m0 := materializations.Value()
	for i := 0; i < 20; i++ {
		if _, err := s.Update(&xupdate.Op{
			Kind:     xupdate.Update,
			Select:   fmt.Sprintf("/patients/p%d/diagnosis", i),
			NewValue: fmt.Sprintf("revised-%d", i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if m := materializations.Value() - m0; m != 0 {
		t.Errorf("20 writes under a non-chain policy ran %d materializations, want 0", m)
	}
}

// openHospital restores a database of the workload hospital fixture with
// the paper policy from a storage snapshot, as the server does.
func openHospital(tb testing.TB, patients int) *Database {
	tb.Helper()
	doc, err := workload.Hospital(workload.HospitalConfig{Patients: patients, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	h, err := workload.HospitalHierarchy(patients)
	if err != nil {
		tb.Fatal(err)
	}
	pol, err := workload.HospitalPolicy(h)
	if err != nil {
		tb.Fatal(err)
	}
	rules := make([]policy.Rule, 0, pol.Len())
	for _, r := range pol.Rules() {
		rules = append(rules, *r)
	}
	var buf bytes.Buffer
	if err := storage.Write(&buf, &storage.Snapshot{SchemeName: doc.Scheme().Name(), Doc: doc, Subjects: h, Rules: rules}); err != nil {
		tb.Fatal(err)
	}
	db, err := Open(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

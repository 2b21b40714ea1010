package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"securexml/internal/core"
	"securexml/internal/server"
)

// setupRounds is how many times a run sets the server up; setup_s is the
// median, so one slow round (a GC, a noisy neighbour) does not move it.
const setupRounds = 3

// env is one served database: the shipped handler on a loopback listener,
// restored from the run's snapshot, journaling to a file in the work dir.
type env struct {
	db      *core.Database
	srv     *http.Server
	base    string
	journal *os.File
	served  chan error
}

// close stops the server, waits for its accept loop to return and closes
// the journal.
func (e *env) close() error {
	err := e.srv.Close()
	if serr := <-e.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := e.journal.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// runner drives one run: it owns the inputs, the HTTP client, the oracle
// state and the failure accounting.
type runner struct {
	in     *Inputs
	dir    string
	refs   map[refKey]string
	client *http.Client
	acct   account
}

// account counts operations attempted and failed, keeping the first few
// failure reasons for the report.
type account struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	reasons   []string
}

func (a *account) add(ok bool, reason func() string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.attempted++
	if !ok {
		a.failed++
		if len(a.reasons) < 8 {
			a.reasons = append(a.reasons, reason())
		}
	}
}

func (a *account) snapshot() (attempted, failed int64, reasons []string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.attempted, a.failed, append([]string(nil), a.reasons...)
}

func newRunner(in *Inputs, dir string, refs map[refKey]string) *runner {
	return &runner{
		in:   in,
		dir:  dir,
		refs: refs,
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     2,
				MaxIdleConnsPerHost: 2,
				DisableCompression:  true,
			},
		},
	}
}

// setUp restores the database from the snapshot, starts the server on a
// loopback listener and sends the warm-up pass; the returned duration is
// what setup_s reports. Warm-up answers are checked against the references.
func (r *runner) setUp(round int) (*env, time.Duration, error) {
	jpath := filepath.Join(r.dir, fmt.Sprintf("journal-%d.log", round))
	start := time.Now()
	db, err := core.Open(bytes.NewReader(r.in.Snapshot))
	if err != nil {
		return nil, 0, fmt.Errorf("open snapshot: %w", err)
	}
	jf, err := os.OpenFile(jpath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, 0, err
	}
	db.AttachJournal(jf, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		jf.Close()
		return nil, 0, err
	}
	e := &env{
		db:      db,
		srv:     &http.Server{Handler: server.New(db, server.WithAccessLog(io.Discard))},
		base:    "http://" + ln.Addr().String(),
		journal: jf,
		served:  make(chan error, 1),
	}
	go func() { e.served <- e.srv.Serve(ln) }()
	if err := r.warm(e); err != nil {
		e.close()
		return nil, 0, err
	}
	return e, time.Since(start), nil
}

// warm sends every (user, request) pair once, split over the workload's
// read clients.
func (r *runner) warm(e *env) error {
	n := r.in.Spec.Readers
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(r.in.Warm); i += n {
				req := r.in.Warm[i]
				res, err := r.get(e, req)
				if err != nil {
					errs[c] = err
					return
				}
				r.checkRead(req, res, true)
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// readRes is one HTTP read's outcome.
type readRes struct {
	status int
	tier   string
	body   []byte
	direct bool // served by a direct core call (traced runs)
}

// get sends one read as its user and returns the whole response.
func (r *runner) get(e *env, req ReadReq) (readRes, error) {
	var u string
	switch req.Kind {
	case kindView:
		u = e.base + "/view"
	default:
		u = e.base + "/" + req.Kind + "?xpath=" + url.QueryEscape(req.Expr)
	}
	hr, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return readRes{}, err
	}
	hr.SetBasicAuth(req.User, "")
	resp, err := r.client.Do(hr)
	if err != nil {
		return readRes{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return readRes{}, err
	}
	return readRes{status: resp.StatusCode, tier: resp.Header.Get("X-Query-Tier"), body: body}, nil
}

// post sends one write as writerUser.
func (r *runner) post(e *env, w WriteReq) (int, []byte, error) {
	hr, err := http.NewRequest(http.MethodPost, e.base+"/update", strings.NewReader(w.Body))
	if err != nil {
		return 0, nil, err
	}
	hr.SetBasicAuth(writerUser, "")
	resp, err := r.client.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// loadResult collects one phase's measurements.
type loadResult struct {
	readLat  []float64 // ms, reads answered 200 and accepted
	writeLat []float64 // ms, from due time to response
	lateMs   []float64 // ms the writer sent after the due time
	acked    []WriteReq
	elapsed  time.Duration
}

// hooks lets the traced run route and observe operations; nil in untraced
// runs.
type hooks struct {
	// read performs one read of client c; nil sends it over HTTP.
	read func(c int, req ReadReq) readRes
	// afterRead runs on the reader's goroutine after each read has been
	// timed and checked.
	afterRead func(c int, req ReadReq, res readRes, ms float64)
	// write performs one write; nil sends it over HTTP.
	write func(w WriteReq) (status int, body []byte, err error)
	// afterWrite runs on the writer's goroutine after each checked write.
	afterWrite func(ms, lateMs float64, ok bool)
}

// readLoad runs the workload's closed-loop readers against e for d, plus
// the open-loop writer when the workload has one; writes is the slice of
// the write stream this phase may use.
func (r *runner) readLoad(e *env, d time.Duration, seed int64, writes []WriteReq, h *hooks) (*loadResult, error) {
	sp := r.in.Spec
	res := &loadResult{}
	start := time.Now()
	end := start.Add(d)
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, sp.Readers+1)
	for c := 0; c < sp.Readers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*31 + int64(c)))
			var lat []float64
			for time.Now().Before(end) {
				req := r.in.NextRead(rng)
				t0 := time.Now()
				var rr readRes
				var err error
				if h != nil && h.read != nil {
					rr = h.read(c, req)
				} else {
					rr, err = r.get(e, req)
				}
				ms := msSince(t0)
				if err != nil {
					errs[c] = err
					break
				}
				if r.checkRead(req, rr, sp.WriteRate == 0) {
					lat = append(lat, ms)
				}
				if h != nil && h.afterRead != nil {
					h.afterRead(c, req, rr, ms)
				}
			}
			mu.Lock()
			res.readLat = append(res.readLat, lat...)
			mu.Unlock()
		}(c)
	}
	if sp.WriteRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[sp.Readers] = r.writeOpenLoop(e, start, end, writes, h, res)
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res, errors.Join(errs...)
}

// writeOpenLoop sends write k at start + k/rate whatever the server's
// state, timing each from its due time; the writer's own lateness is
// recorded separately.
func (r *runner) writeOpenLoop(e *env, start, end time.Time, writes []WriteReq, h *hooks, res *loadResult) error {
	period := time.Duration(float64(time.Second) / r.in.Spec.WriteRate)
	for k, w := range writes {
		due := start.Add(time.Duration(k) * period)
		if !due.Before(end) {
			return nil
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		late := msSince(due)
		if err := r.doWrite(e, k, w, due, late, h, res); err != nil {
			return err
		}
	}
	if start.Add(time.Duration(len(writes)) * period).Before(end) {
		return fmt.Errorf("write stream exhausted after %d writes", len(writes))
	}
	return nil
}

// writeProbe sends writes closed-loop (each due when the previous one was
// acknowledged) with the readers stopped: the write latency of the
// read-only workloads' document.
func (r *runner) writeProbe(e *env, writes []WriteReq, h *hooks) (*loadResult, error) {
	res := &loadResult{}
	start := time.Now()
	for k, w := range writes {
		if err := r.doWrite(e, k, w, time.Now(), 0, h, res); err != nil {
			return res, err
		}
	}
	res.elapsed = time.Since(start)
	return res, nil
}

// doWrite performs one write, checks its acknowledgement and records it.
func (r *runner) doWrite(e *env, k int, w WriteReq, due time.Time, late float64, h *hooks, res *loadResult) error {
	var status int
	var body []byte
	var err error
	if h != nil && h.write != nil {
		status, body, err = h.write(w)
	} else {
		status, body, err = r.post(e, w)
	}
	ms := msSince(due)
	if err != nil {
		return err
	}
	ok := checkWrite(w, status, body)
	r.acct.add(ok, func() string { return fmt.Sprintf("write %d: status %d: %q", k, status, body) })
	if ok {
		res.writeLat = append(res.writeLat, ms)
		res.lateMs = append(res.lateMs, late)
		res.acked = append(res.acked, w)
	}
	if h != nil && h.afterWrite != nil {
		h.afterWrite(ms, late, ok)
	}
	return nil
}

// checkWrite accepts an acknowledgement only when every operation of the
// write selected and applied exactly one node and nothing was refused.
func checkWrite(w WriteReq, status int, body []byte) bool {
	if status != http.StatusOK {
		return false
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != w.Ops {
		return false
	}
	for _, l := range lines {
		if !strings.Contains(l, " selected=1 applied=1 ") || !strings.HasSuffix(l, " skipped=0") {
			return false
		}
	}
	return true
}

// msSince is the time since t in milliseconds.
func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of xs (sorted in place); 0 for
// an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median is quantile(xs, 0.5) on a copy.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

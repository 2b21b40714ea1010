package obs

import (
	"context"
	"expvar"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "op", "query")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("op", "op", "query"); again == c {
		t.Fatal("different names must not share a handle")
	}
	// Label order does not split series.
	same := r.Counter("ops_total", "op", "query")
	if same != c {
		t.Fatal("same series must return the same handle")
	}
	g := r.Gauge("in_flight")
	g.Add(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %d, want 2", got)
	}
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m", "x", "1", "y", "2")
	b := r.Counter("m", "y", "2", "x", "1")
	if a != b {
		t.Fatal("label order must not split series")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("registering m as a gauge after counter should panic")
		}
	}()
	r.Gauge("m")
}

func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				// Resolve the handle every iteration: exercises the
				// registry map under concurrency, not just the atomics.
				r.Counter("c_total", "shard", "s").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h", []float64{0.001, 0.01, 0.1}).Observe(0.005)
				r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total", "shard", "s").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Gauge("g").Value(); got != workers*per {
		t.Fatalf("gauge = %d, want %d", got, workers*per)
	}
	h := r.Histogram("h", nil)
	if got := h.Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{0.001, 0.01, 0.1})
	// Prometheus le semantics: upper bounds are inclusive.
	h.Observe(0.0005) // le=0.001
	h.Observe(0.001)  // le=0.001 (boundary is inclusive)
	h.Observe(0.0011) // le=0.01
	h.Observe(0.1)    // le=0.1 (boundary)
	h.Observe(0.2)    // +Inf
	want := []uint64{2, 1, 1, 1}
	got := h.BucketCounts()
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, got[i], w, got)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if s := h.Sum(); s < 0.30259 || s > 0.30261 {
		t.Fatalf("sum = %v, want ~0.3026", s)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", []float64{1, 2, 3, 4})
	for i := 0; i < 50; i++ {
		h.Observe(0.5) // bucket (0,1]
	}
	for i := 0; i < 50; i++ {
		h.Observe(2.5) // bucket (2,3]
	}
	approx := func(got, want float64) bool { return got > want-1e-9 && got < want+1e-9 }
	if p50 := h.Quantile(0.50); !approx(p50, 1.0) {
		t.Fatalf("p50 = %v, want 1.0", p50)
	}
	// rank 95: 45 of 50 into the (2,3] bucket → 2 + 0.9.
	if p95 := h.Quantile(0.95); !approx(p95, 2.9) {
		t.Fatalf("p95 = %v, want 2.9", p95)
	}
	if h.Quantile(0.50) > h.Quantile(0.95) || h.Quantile(0.95) > h.Quantile(0.99) {
		t.Fatal("quantiles must be monotone")
	}
	// Observations beyond the last bound clamp to it.
	over := r.Histogram("over", []float64{1})
	over.Observe(50)
	if got := over.Quantile(0.99); !approx(got, 1) {
		t.Fatalf("overflow quantile = %v, want clamp to 1", got)
	}
	// Empty histogram.
	if got := r.Histogram("empty", []float64{1}).Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}

// TestPrometheusExposition is the exposition-format golden test: exact
// output for a small deterministic registry.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Help("requests_total", "HTTP requests by endpoint.")
	r.Counter("requests_total", "endpoint", "view", "status", "2xx").Add(3)
	r.Counter("requests_total", "endpoint", "query", "status", "4xx").Inc()
	r.Gauge("in_flight").Set(2)
	h := r.Histogram("stage_seconds", []float64{0.001, 0.25}, "stage", "eval")
	h.Observe(0.0005)
	h.Observe(0.0005)
	h.Observe(0.5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE in_flight gauge
in_flight 2
# HELP requests_total HTTP requests by endpoint.
# TYPE requests_total counter
requests_total{endpoint="query",status="4xx"} 1
requests_total{endpoint="view",status="2xx"} 3
# TYPE stage_seconds histogram
stage_seconds_bucket{stage="eval",le="0.001"} 2
stage_seconds_bucket{stage="eval",le="0.25"} 2
stage_seconds_bucket{stage="eval",le="+Inf"} 3
stage_seconds_sum{stage="eval"} 0.501
stage_seconds_count{stage="eval"} 3
`
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "k", "a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `m{k="a\"b\\c\nd"} 1`) {
		t.Fatalf("escaping wrong:\n%s", b.String())
	}
}

func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Help("m_total", "line one\nline \\two")
	r.Counter("m_total").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `# HELP m_total line one\nline \\two`+"\n") {
		t.Fatalf("help escaping wrong:\n%s", b.String())
	}
}

func TestWritePrometheusEmptyRegistry(t *testing.T) {
	r := NewRegistry()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "" {
		t.Fatalf("empty registry wrote %q, want empty output", b.String())
	}
	// Help for a never-registered metric must not invent a series either.
	r.Help("ghost_total", "never registered")
	b.Reset()
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "" {
		t.Fatalf("help-only registry wrote %q, want empty output", b.String())
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "x", "1")
	c.Add(9)
	g := r.Gauge("g")
	g.Set(-4)
	h := r.Histogram("h", []float64{1, 2})
	h.Observe(1.5)
	snap := r.Snapshot()
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 9 ||
		snap.Counters[0].Labels["x"] != "1" || snap.Counters[0].ID != `c_total{x="1"}` {
		t.Fatalf("counter snap: %+v", snap.Counters)
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Value != -4 {
		t.Fatalf("gauge snap: %+v", snap.Gauges)
	}
	hs := snap.Histograms
	if len(hs) != 1 || hs[0].Count != 1 || hs[0].Sum != 1.5 || hs[0].P50 <= 1 || hs[0].P50 > 2 {
		t.Fatalf("histogram snap: %+v", hs)
	}
}

func TestRequestIDContext(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == "" || a == b {
		t.Fatalf("request IDs must be unique and non-empty: %q %q", a, b)
	}
	ctx := WithRequestID(context.Background(), a)
	if got := RequestID(ctx); got != a {
		t.Fatalf("RequestID = %q, want %q", got, a)
	}
	if got := RequestID(context.Background()); got != "" {
		t.Fatalf("empty ctx RequestID = %q, want \"\"", got)
	}
	if got := WithRequestID(context.Background(), ""); got != context.Background() {
		t.Fatal("empty id must return ctx unchanged")
	}
}

func TestSpanRecords(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("span_seconds", []float64{10})
	sp := NewSpan(h)
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d <= 0 {
		t.Fatalf("duration = %v, want > 0", d)
	}
	if h.Count() != 1 {
		t.Fatalf("span did not record: count = %d", h.Count())
	}
	// nil histogram span is a plain timer
	nilSpan := NewSpan(nil)
	if d := nilSpan.End(); d < 0 {
		t.Fatalf("nil span duration = %v", d)
	}
}

// TestSpanEndIdempotent is the regression test for the double-record
// footgun: an explicit End followed by a deferred End used to observe the
// histogram twice.
func TestSpanEndIdempotent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("span_seconds", []float64{10})
	sp := NewSpan(h)
	first := sp.End()
	second := sp.End()
	if h.Count() != 1 {
		t.Fatalf("double End recorded %d observations, want 1", h.Count())
	}
	if first != second {
		t.Fatalf("second End returned %v, want the recorded %v", second, first)
	}
	// The same holds for trace-attached spans: one histogram observation,
	// one finished trace node.
	tr := NewTracer(4, 0, nil)
	ctx, trace := tr.StartTrace(context.Background(), "req")
	_, child := StartSpanCtx(ctx, "stage", h)
	child.End()
	child.End()
	trace.Finish()
	if h.Count() != 2 {
		t.Fatalf("traced double End: histogram count = %d, want 2", h.Count())
	}
	ex := trace.Export()
	if len(ex.Root.Children) != 1 || ex.Root.Children[0].DurNS < 0 {
		t.Fatalf("trace tree after double End: %+v", ex.Root)
	}
}

func TestPublishExpvar(t *testing.T) {
	r := NewRegistry()
	r.Counter("pub_total").Inc()
	r.PublishExpvar("obs_test_registry")
	r.PublishExpvar("obs_test_registry") // second call is a no-op, no panic
	v := expvar.Get("obs_test_registry")
	if v == nil {
		t.Fatal("expvar not published")
	}
	if !strings.Contains(v.String(), "pub_total") {
		t.Fatalf("expvar payload missing counter: %s", v.String())
	}
}

package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceTreeStructure(t *testing.T) {
	tr := NewTracer(8, 0, nil)
	ctx, trace := tr.StartTrace(context.Background(), "req")
	if trace.ID() == "" || RequestID(ctx) != trace.ID() {
		t.Fatalf("trace ID %q must be the context request ID %q", trace.ID(), RequestID(ctx))
	}
	ctx1, outer := StartSpanCtx(ctx, "outer", nil)
	outer.Annotate("k", "v")
	outer.AnnotateInt("n", 42)
	_, inner := StartSpanCtx(ctx1, "inner", nil)
	AnnotateCtx(ctx1, "via_ctx", "yes") // lands on outer, the ctx's current span
	inner.End()
	outer.End()
	// A sibling of outer, started from the root context.
	_, sib := StartSpanCtx(ctx, "sibling", nil)
	sib.End()
	trace.Finish()

	ex := trace.Export()
	if ex.Spans != 4 { // root + outer + inner + sibling
		t.Fatalf("spans = %d, want 4", ex.Spans)
	}
	if ex.DurNS < 0 || ex.Root == nil || ex.Root.Name != "req" {
		t.Fatalf("root: %+v", ex.Root)
	}
	if len(ex.Root.Children) != 2 {
		t.Fatalf("root children = %d, want 2 (outer, sibling)", len(ex.Root.Children))
	}
	o := ex.Root.Children[0]
	if o.Name != "outer" || o.Attrs["k"] != "v" || o.Attrs["n"] != "42" || o.Attrs["via_ctx"] != "yes" {
		t.Fatalf("outer span: %+v", o)
	}
	if len(o.Children) != 1 || o.Children[0].Name != "inner" || o.Children[0].DurNS < 0 {
		t.Fatalf("inner span: %+v", o.Children)
	}
	if ex.Root.Children[1].Name != "sibling" {
		t.Fatalf("sibling span: %+v", ex.Root.Children[1])
	}
	// Export must be JSON-serializable (the /trace/{id} payload).
	if _, err := json.Marshal(ex); err != nil {
		t.Fatalf("export does not marshal: %v", err)
	}
}

func TestUntracedContextIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpanCtx(ctx, "stage", nil)
	if ctx2 != ctx {
		t.Fatal("untraced StartSpanCtx must return the context unchanged")
	}
	sp.Annotate("k", "v") // all no-ops, must not panic
	AnnotateCtx(ctx, "k", "v")
	AnnotateIntCtx(ctx, "k", 1)
	if d := sp.End(); d < 0 {
		t.Fatalf("duration = %v", d)
	}
	if TraceFrom(ctx) != nil || TraceFrom(nil) != nil {
		t.Fatal("TraceFrom must be nil outside a trace")
	}
}

func TestNilTracerAndNilTrace(t *testing.T) {
	var tr *Tracer
	ctx, trace := tr.StartTrace(context.Background(), "req")
	if trace != nil {
		t.Fatal("nil tracer must return a nil trace")
	}
	trace.Annotate("k", "v") // nil-trace no-ops
	trace.Finish()
	if trace.ID() != "" {
		t.Fatal("nil trace ID must be empty")
	}
	if tr.Summaries() != nil {
		t.Fatal("nil tracer summaries must be nil")
	}
	if _, ok := tr.Get("x"); ok {
		t.Fatal("nil tracer Get must miss")
	}
	_, sp := StartSpanCtx(ctx, "stage", nil)
	sp.End()
}

func TestTraceSpanBudget(t *testing.T) {
	tr := NewTracer(2, 0, nil)
	ctx, trace := tr.StartTrace(context.Background(), "req")
	for i := 0; i < maxSpansPerTrace+50; i++ {
		_, sp := StartSpanCtx(ctx, "stage", nil)
		sp.End()
	}
	trace.Finish()
	if got := trace.Summary().Spans; got != maxSpansPerTrace {
		t.Fatalf("spans = %d, want capped at %d", got, maxSpansPerTrace)
	}
	// Spans after Finish are dropped too.
	_, late := StartSpanCtx(ctx, "late", nil)
	late.End()
	if got := trace.Summary().Spans; got != maxSpansPerTrace {
		t.Fatalf("span after Finish grew the tree to %d", got)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(3, 0, nil)
	var ids []string
	for i := 0; i < 5; i++ {
		_, trace := tr.StartTrace(context.Background(), "req")
		trace.Finish()
		ids = append(ids, trace.ID())
	}
	sums := tr.Summaries()
	if len(sums) != 3 {
		t.Fatalf("ring holds %d traces, want 3", len(sums))
	}
	// Newest first: ids[4], ids[3], ids[2].
	for i, want := range []string{ids[4], ids[3], ids[2]} {
		if sums[i].ID != want {
			t.Fatalf("summaries[%d] = %q, want %q", i, sums[i].ID, want)
		}
	}
	if _, ok := tr.Get(ids[0]); ok {
		t.Fatal("evicted trace still reachable by ID")
	}
	if got, ok := tr.Get(ids[4]); !ok || got.ID() != ids[4] {
		t.Fatal("latest trace not reachable by ID")
	}
	// Double Finish must not duplicate the ring entry.
	got, _ := tr.Get(ids[4])
	got.Finish()
	if len(tr.Summaries()) != 3 {
		t.Fatal("double Finish changed the ring")
	}
}

func TestHistogramExemplar(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", []float64{1}, "stage", "s")
	h.Observe(5) // untraced: no exemplar
	if _, _, ok := h.Exemplar(); ok {
		t.Fatal("untraced observation must not set an exemplar")
	}
	tr := NewTracer(4, 0, nil)
	ctx, t1 := tr.StartTrace(context.Background(), "req")
	_, sp := StartSpanCtx(ctx, "stage", h)
	time.Sleep(time.Millisecond)
	sp.End()
	t1.Finish()
	id, v, ok := h.Exemplar()
	if !ok || id != t1.ID() || v <= 0 {
		t.Fatalf("exemplar = (%q, %v, %v), want trace %q", id, v, ok, t1.ID())
	}
	// A faster traced observation must not displace the max.
	ctx2, t2 := tr.StartTrace(context.Background(), "req")
	_, sp2 := StartSpanCtx(ctx2, "stage", h)
	sp2.End()
	t2.Finish()
	if id2, _, _ := h.Exemplar(); id2 != t1.ID() {
		t.Fatalf("faster trace displaced the max exemplar: %q", id2)
	}
	// The exemplar shows up in the exposition and the snapshot.
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	wantLine := fmt.Sprintf("# EXEMPLAR lat_seconds{stage=\"s\"} trace_id=%q", t1.ID())
	if !strings.Contains(b.String(), wantLine) {
		t.Fatalf("exposition missing exemplar comment %q:\n%s", wantLine, b.String())
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 || snap.Histograms[0].ExemplarTraceID != t1.ID() {
		t.Fatalf("snapshot exemplar: %+v", snap.Histograms)
	}
}

func TestSlowTraceLogging(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	tr := NewTracer(4, time.Nanosecond, logger) // everything is slow
	ctx, trace := tr.StartTrace(context.Background(), "req")
	_, sp := StartSpanCtx(ctx, "stage", nil)
	sp.End()
	time.Sleep(time.Millisecond)
	trace.Finish()
	out := buf.String()
	if !strings.Contains(out, "slow trace") || !strings.Contains(out, trace.ID()) {
		t.Fatalf("slow trace not logged: %s", out)
	}
	if !strings.Contains(out, "stage") {
		t.Fatalf("slow trace log missing span tree: %s", out)
	}
	if !trace.Summary().Slow {
		t.Fatal("summary not marked slow")
	}

	// Below the threshold (or with it disabled) nothing is logged.
	buf.Reset()
	quiet := NewTracer(4, 0, logger)
	_, fast := quiet.StartTrace(context.Background(), "req")
	fast.Finish()
	if buf.Len() != 0 {
		t.Fatalf("slow-disabled tracer logged: %s", buf.String())
	}
}

func TestDefaultTracer(t *testing.T) {
	if DefaultTracer() != nil {
		t.Fatal("default tracer must start nil")
	}
	tr := NewTracer(4, 0, nil)
	SetDefaultTracer(tr)
	defer SetDefaultTracer(nil)
	ctx, trace := StartTrace(context.Background(), "req")
	if trace == nil || TraceFrom(ctx) != trace {
		t.Fatal("package StartTrace did not use the default tracer")
	}
	trace.Finish()
	if len(tr.Summaries()) != 1 {
		t.Fatal("trace not recorded in the default tracer's ring")
	}
	SetDefaultTracer(nil)
	if _, trace := StartTrace(context.Background(), "req"); trace != nil {
		t.Fatal("cleared default tracer must disable tracing")
	}
}

// TestTraceRingConcurrency is the -race stress test: concurrent request
// goroutines finishing traces (with span churn) while readers drain
// Summaries, Get and Export from the same ring.
func TestTraceRingConcurrency(t *testing.T) {
	tr := NewTracer(16, 0, nil)
	const writers, readers, perWriter = 8, 4, 200
	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func() {
			defer writeWG.Done()
			for i := 0; i < perWriter; i++ {
				ctx, trace := tr.StartTrace(context.Background(), "req")
				ctx1, sp := StartSpanCtx(ctx, "outer", nil)
				sp.AnnotateInt("i", int64(i))
				_, in := StartSpanCtx(ctx1, "inner", nil)
				in.End()
				sp.End()
				trace.Finish()
			}
		}()
	}
	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, sum := range tr.Summaries() {
					if trace, ok := tr.Get(sum.ID); ok {
						if ex := trace.Export(); ex.Root == nil {
							t.Error("finished trace exported without a root")
							return
						}
					}
				}
			}
		}()
	}
	writeWG.Wait()
	close(stop)
	readWG.Wait()
	if got := len(tr.Summaries()); got != 16 {
		t.Fatalf("ring holds %d traces after the stress, want capacity 16", got)
	}
}

// Package obs is the repository's dependency-free telemetry layer: a
// concurrent-safe registry of counters, gauges and fixed-bucket latency
// histograms, Prometheus text exposition and expvar publication, structured
// snapshots for the bench harness, and request-scoped span timing with
// request IDs propagated via context.Context.
//
// The package mirrors the subset of the Prometheus data model this
// repository needs — stdlib only, no client library. Metric handles are
// cheap to hold: instrumented packages resolve them once (package-level
// vars) so the hot path is a single atomic operation. The paper's pipeline
// stages (axiom-14 conflict resolution, axiom 15–17 view materialization,
// axiom 18–25 write application) all record into the shared
// xmlsec_stage_duration_seconds histogram, one series per stage.
package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// StageMetric is the shared histogram for pipeline stage timings; each
// stage is one series labeled stage=<name>.
const StageMetric = "xmlsec_stage_duration_seconds"

// LatencyBuckets are the default histogram bounds for stage timings, in
// seconds: 1µs to 10s, roughly ×2.5 per step.
var LatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets are the default histogram bounds for small count
// distributions (group-commit batch sizes, queue depths): powers of two
// from 1 to 256.
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram with Prometheus le semantics: an
// observation lands in the first bucket whose upper bound is >= the value
// (bounds are inclusive); values beyond the last bound land in +Inf.
type Histogram struct {
	uppers  []float64
	counts  []atomic.Uint64 // len(uppers)+1; last is the +Inf overflow
	sumBits atomic.Uint64
	total   atomic.Uint64

	exMu sync.Mutex
	// exID and exV are the series' max-latency exemplar — the trace ID and
	// value of the largest traced observation so far; both are guarded
	// by exMu.
	exID string
	exV  float64
}

func newHistogram(uppers []float64) *Histogram {
	if len(uppers) == 0 {
		uppers = LatencyBuckets
	}
	cp := append([]float64(nil), uppers...)
	sort.Float64s(cp)
	return &Histogram{uppers: cp, counts: make([]atomic.Uint64, len(cp)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.uppers, v)].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Uppers returns the bucket upper bounds (excluding +Inf).
func (h *Histogram) Uppers() []float64 { return append([]float64(nil), h.uppers...) }

// BucketCounts returns the per-bucket (non-cumulative) counts; the last
// entry is the +Inf overflow bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the bucket containing the rank. Observations in the +Inf bucket
// clamp to the last finite bound. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	lower := 0.0
	for i, upper := range h.uppers {
		c := h.counts[i].Load()
		cum += c
		if c > 0 && float64(cum) >= rank {
			frac := (rank - float64(cum-c)) / float64(c)
			return lower + (upper-lower)*frac
		}
		lower = upper
	}
	return h.uppers[len(h.uppers)-1]
}

// noteExemplar records a traced observation, keeping the largest value
// seen so a p99 outlier on /metrics links back to the trace that produced
// it. Only traced spans call it, so untraced hot paths never touch the
// exemplar mutex.
func (h *Histogram) noteExemplar(v float64, traceID string) {
	if traceID == "" {
		return
	}
	h.exMu.Lock()
	if h.exID == "" || v >= h.exV {
		h.exID, h.exV = traceID, v
	}
	h.exMu.Unlock()
}

// Exemplar returns the max-latency exemplar's trace ID and value; ok is
// false when no traced observation has been recorded.
func (h *Histogram) Exemplar() (traceID string, v float64, ok bool) {
	h.exMu.Lock()
	defer h.exMu.Unlock()
	return h.exID, h.exV, h.exID != ""
}

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one (name, labels) time series in a registry.
type series struct {
	id     string // name + canonical label rendering, e.g. a_total{k="v"}
	name   string
	labels []string // alternating key, value; sorted by key
	kind   kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds metric series. All methods are safe for concurrent use;
// getter methods return the same handle for the same (name, labels).
type Registry struct {
	mu         sync.Mutex
	series     map[string]*series
	help       map[string]string
	expvarOnce sync.Once
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*series), help: make(map[string]string)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry the instrumented packages
// record into.
func Default() *Registry { return defaultRegistry }

// Stage returns the default registry's stage-duration histogram series for
// one pipeline stage.
func Stage(stage string) *Histogram {
	return Default().Histogram(StageMetric, LatencyBuckets, "stage", stage)
}

// Help sets the exposition HELP text for a metric name.
func (r *Registry) Help(name, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = text
}

// Counter returns (creating if needed) the counter for name and the given
// label key/value pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return r.get(name, kindCounter, labels, nil).counter
}

// Gauge returns (creating if needed) the gauge for name and labels.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return r.get(name, kindGauge, labels, nil).gauge
}

// Histogram returns (creating if needed) the histogram for name and labels.
// buckets are the upper bounds (nil = LatencyBuckets); they are fixed by the
// first registration.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	return r.get(name, kindHistogram, labels, buckets).hist
}

func (r *Registry) get(name string, k kind, labels []string, buckets []float64) *series {
	if len(labels)%2 != 0 {
		panic("obs: labels must be key/value pairs: " + name)
	}
	ls := canonicalLabels(labels)
	id := name + labelString(ls, "", "")
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[id]; ok {
		if s.kind != k {
			panic("obs: " + id + " already registered as a " + s.kind.String())
		}
		return s
	}
	s := &series{id: id, name: name, labels: ls, kind: k}
	switch k {
	case kindCounter:
		s.counter = &Counter{}
	case kindGauge:
		s.gauge = &Gauge{}
	case kindHistogram:
		s.hist = newHistogram(buckets)
	}
	r.series[id] = s
	return s
}

// canonicalLabels copies the pairs and sorts them by key so label order at
// the call site does not split series.
func canonicalLabels(labels []string) []string {
	if len(labels) == 0 {
		return nil
	}
	type pair struct{ k, v string }
	ps := make([]pair, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		ps = append(ps, pair{labels[i], labels[i+1]})
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].k < ps[j].k })
	out := make([]string, 0, len(labels))
	for _, p := range ps {
		out = append(out, p.k, p.v)
	}
	return out
}

// labelString renders {k="v",...}; extraK/extraV append one more pair
// (used for the histogram le label). Empty labels and no extra renders "".
func labelString(labels []string, extraK, extraV string) string {
	if len(labels) == 0 && extraK == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteString(`"`)
	}
	if extraK != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraK)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraV))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

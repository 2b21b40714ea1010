// Command perfbench is securexml's end-to-end benchmark. It serves a
// generated hospital database through the shipped HTTP server on a
// loopback listener and drives one of three workloads against it
// (README.md explains each), checking every answer with an oracle.
//
//	perfbench --workload patient-portal --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the same load with each request also replayed through the layers'
// public functions, and prints the per-layer metrics. The last line of
// standard output is the result object; the lines before it carry the run
// metadata and every metric with its sample count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/pprof"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// report is everything one run measured.
type report struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
	correct   bool
	reasons   []string
	extra     map[string]any
}

func (rp *report) set(name string, v float64, unit string, samples int) {
	rp.metrics[name] = metric{Value: v, Unit: unit, Samples: samples}
}

func main() {
	wl := flag.String("workload", "", "workload name: patient-portal, staff-scan or ward-churn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced, layer-attributed run")
	workdir := flag.String("workdir", ".bench_build", "directory for journals (a per-run subdirectory is removed afterwards)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()

	sp, ok := Specs[*wl]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *wl))
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
			}
		}()
	}
	window := time.Duration(*seconds * float64(time.Second))
	fmt.Println(metaLine(sp, *seed, *seconds, *trace == 1))
	var rp *report
	var err error
	if *trace == 1 {
		rp, err = runTraced(sp, *seed, window, *workdir)
	} else {
		rp, err = runPlain(sp, *seed, window, *workdir)
	}
	if err != nil {
		if *cpuprofile != "" {
			pprof.StopCPUProfile()
		}
		fail(err)
	}
	detail, _ := json.Marshal(map[string]any{"detail": rp.metrics, "failures": rp.reasons, "extra": rp.extra})
	fmt.Println(string(detail))
	fmt.Println(resultLine(rp))
}

// resultLine is the final line: {"correct", "attempted", "failed",
// "metrics"} with each metric as {"value", "unit"}.
func resultLine(rp *report) string {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]vu, len(rp.metrics))
	for k, m := range rp.metrics {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		ms[k] = vu{Value: v, Unit: m.Unit}
	}
	out, _ := json.Marshal(map[string]any{
		"correct": rp.correct, "attempted": rp.attempted, "failed": rp.failed, "metrics": ms,
	})
	return string(out)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// writesFor is how many writes a run of spec may send in window: the
// open-loop writer's schedule, or the read-only workloads' probe.
func writesFor(sp Spec, window time.Duration) int {
	if sp.WriteRate > 0 {
		return int(math.Ceil(sp.WriteRate*window.Seconds())) + 1
	}
	return sp.ProbeWrites
}

// prepare generates the inputs and the reference answers and creates the
// run's work directory.
func prepare(sp Spec, seed int64, window time.Duration, workdir string) (*runner, error) {
	in, err := GenerateInputs(sp, seed, writesFor(sp, window))
	if err != nil {
		return nil, err
	}
	refs, err := References(in.Doc, in.Subjects, in.Policy, in.Warm)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	return newRunner(in, dir, refs), nil
}

// setUpRounds sets the server up setupRounds times, keeps the last one and
// returns the median set-up time in seconds.
func (r *runner) setUpRounds() (*env, float64, error) {
	var times []float64
	var e *env
	for i := 0; i < setupRounds; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, 0, err
			}
			r.client.CloseIdleConnections()
		}
		var d time.Duration
		var err error
		e, d, err = r.setUp(i)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, d.Seconds())
	}
	return e, median(times), nil
}

// runPlain is the untraced run.
func runPlain(sp Spec, seed int64, window time.Duration, workdir string) (*report, error) {
	r, err := prepare(sp, seed, window, workdir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.dir)
	return r.measure(window, seed)
}

// measure runs set-up, the measured window (plus the write probe on
// read-only workloads) and the state oracles, and reports the end-to-end
// metrics.
func (r *runner) measure(window time.Duration, seed int64) (*report, error) {
	sp := r.in.Spec
	heap0 := liveHeapMB()
	e, setup, err := r.setUpRounds()
	if err != nil {
		return nil, err
	}
	defer r.client.CloseIdleConnections()
	defer e.close()
	res, err := r.readLoad(e, window, seed, r.in.Writes, nil)
	if err != nil {
		return nil, err
	}
	writes := res
	if sp.WriteRate == 0 {
		if writes, err = r.writeProbe(e, r.in.Writes, nil); err != nil {
			return nil, err
		}
	}
	heap := liveHeapMB() - heap0
	m := newMirror(r.in, sp.WriteRate > 0)
	for _, w := range writes.acked {
		if err := m.apply(w); err != nil {
			return nil, err
		}
	}
	rp := &report{metrics: map[string]metric{}, extra: map[string]any{}}
	if err := r.checkState(e, m, sp.WriteRate > 0); err != nil {
		r.acct.add(false, err.Error)
	}
	rp.attempted, rp.failed, rp.reasons = r.acct.snapshot()
	rp.correct = rp.failed == 0
	n := len(res.readLat)
	rp.set("read_ops_per_s", float64(n)/res.elapsed.Seconds(), "1/s", n)
	rp.set("read_p50_ms", quantile(res.readLat, 0.50), "ms", n)
	rp.set("read_p99_ms", quantile(res.readLat, 0.99), "ms", n)
	nw := len(writes.writeLat)
	rp.set("write_p50_ms", quantile(writes.writeLat, 0.50), "ms", nw)
	rp.set("write_p90_ms", quantile(writes.writeLat, 0.90), "ms", nw)
	rp.set("ok_ratio", 1-float64(rp.failed)/float64(rp.attempted), "ratio", int(rp.attempted))
	rp.set("heap_mb", heap, "MB", 1)
	rp.set("setup_s", setup, "s", setupRounds)
	rp.extra["writer_late_p90_ms"] = quantile(writes.lateMs, 0.90)
	return rp, nil
}

// metaLine is the run metadata: what was run, where, on what.
func metaLine(sp Spec, seed int64, seconds float64, traced bool) string {
	out, _ := json.Marshal(map[string]any{"meta": runMeta(sp, seed, seconds, traced)})
	return string(out)
}

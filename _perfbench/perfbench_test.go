package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// contract is the part of ../BENCHMARK.json the tests check the program
// against: every metric it names, with its unit.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// small shrinks a workload so a run takes about a second.
func small(name string) Spec {
	sp := Specs[name]
	sp.Patients = 40
	sp.ProbeWrites = 12
	return sp
}

const shortWindow = 600 * time.Millisecond

func TestWorkloadsEmitEveryMetricAndPassOracles(t *testing.T) {
	c := loadContract(t)
	if len(c.Workloads) != len(Specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(c.Workloads), len(Specs))
	}
	for _, w := range c.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			if _, ok := Specs[w.Name]; !ok {
				t.Fatalf("workload %q is not defined", w.Name)
			}
			plain, err := runPlain(small(w.Name), 1, shortWindow, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, "untraced", plain)
			for _, m := range c.EndToEnd {
				checkMetric(t, plain, m.Name, m.Unit)
				if plain.metrics[m.Name].Value == 0 && m.Name != "heap_mb" {
					t.Errorf("end-to-end metric %s is 0", m.Name)
				}
			}
			traced, err := runTraced(small(w.Name), 1, shortWindow, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, "traced", traced)
			for _, m := range c.PerLayer {
				checkMetric(t, traced, m.Name, m.Unit)
			}
			line := resultLine(plain)
			var out map[string]json.RawMessage
			if err := json.Unmarshal([]byte(line), &out); err != nil || len(out) != 4 {
				t.Fatalf("result line %s: keys %d, err %v", line, len(out), err)
			}
		})
	}
}

func checkRun(t *testing.T, what string, rp *report) {
	t.Helper()
	if !rp.correct || rp.failed != 0 || rp.attempted == 0 {
		t.Fatalf("%s run: correct=%v attempted=%d failed=%d: %s", what, rp.correct, rp.attempted, rp.failed,
			strings.Join(rp.reasons, "; "))
	}
}

func checkMetric(t *testing.T, rp *report, name, unit string) {
	t.Helper()
	m, ok := rp.metrics[name]
	if !ok {
		t.Errorf("metric %s not emitted", name)
		return
	}
	if m.Unit != unit {
		t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
	}
}

// TestWrongReferenceIsAFailure feeds the oracle a deliberately wrong
// reference answer: every read of that pair must count as failed.
func TestWrongReferenceIsAFailure(t *testing.T) {
	r, err := prepare(small("patient-portal"), 1, shortWindow, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := keyOf(portalRequests("p0", 0)[1])
	if _, ok := r.refs[k]; !ok {
		t.Fatalf("no reference for %v", k)
	}
	r.refs[k] = "/patients/p1/diagnosis\telement\tflu\n"
	rp, err := r.measure(shortWindow, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rp.correct || rp.failed == 0 {
		t.Fatalf("wrong reference not counted: correct=%v failed=%d", rp.correct, rp.failed)
	}
	if got := rp.metrics["ok_ratio"].Value; got >= 1 {
		t.Fatalf("ok_ratio = %v with failures", got)
	}
}

// TestLeakCheck pins the churn oracle: another patient's record in a
// patient's answer is a leak, the patient's own is not.
func TestLeakCheck(t *testing.T) {
	own := ReadReq{User: "p1", Kind: kindQuery, Expr: "//diagnosis"}
	if got := leakedPatient(own, "/patients/p1/diagnosis\telement\tflu\n"); got != "" {
		t.Fatalf("own record reported as leak %q", got)
	}
	if got := leakedPatient(own, "/patients/p10/diagnosis\telement\tflu\n"); got == "" {
		t.Fatal("p10's record in p1's answer not reported")
	}
	v := ReadReq{User: "p1", Kind: kindView}
	if got := leakedPatient(v, "<patients><p1><diagnosis>flu</diagnosis></p1><p2/></patients>"); got != "p2" {
		t.Fatalf("view leak = %q, want p2", got)
	}
}

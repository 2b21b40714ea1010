// FuzzRewrite: random (policy seed, query text) pairs must either classify
// as a fallback (with a truthful reason) or agree with the materialized
// view node-for-node — the same contract the differential oracle checks,
// under coverage-guided input generation instead of a fixed corpus.
package rewrite_test

import (
	"testing"

	"securexml/internal/rewrite"
	"securexml/internal/view"
	"securexml/internal/workload"
	"securexml/internal/xpath"
)

func FuzzRewrite(f *testing.F) {
	seeds := []struct {
		seed  int64
		query string
	}{
		{1, "//diagnosis"},
		{2, "/patients/*[name() = $USER]/descendant-or-self::node()"},
		{3, "count(//*[name() = 'RESTRICTED'])"},
		{4, "/patients/*[2]"},
		{5, "//service/preceding-sibling::*"},
	}
	for _, s := range seeds {
		f.Add(s.seed, s.query)
	}
	f.Fuzz(func(t *testing.T, seed int64, query string) {
		if seed < 0 {
			seed = -seed
		}
		d, err := workload.Hospital(workload.HospitalConfig{Patients: 3, RecordsPerPatient: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		h, err := workload.HospitalHierarchy(3)
		if err != nil {
			t.Fatal(err)
		}
		p, err := randomPolicy(h, seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := xpath.Compile(query); err != nil {
			return // invalid query: every tier rejects it identically
		}
		eng := rewrite.NewEngine(p, h)
		for _, u := range []string{"beaufort", "laporte", "p0", "p1"} {
			pg, reason := eng.ProgramFor(u)
			if pg == nil {
				// A fallback must carry the fragment reason; nothing to
				// compare — the qfilter/view tiers own this profile.
				if reason != rewrite.ReasonRuleFragment {
					t.Fatalf("user %s: nil program with reason %v", u, reason)
				}
				continue
			}
			got, reason, err := rewriteAnswer(pg, d, u, query)
			if err != nil {
				t.Fatalf("user %s: plan error on a compilable query: %v", u, err)
			}
			if reason == rewrite.ReasonEvalError {
				continue // counted fallback: the lower tiers answer
			}
			pm, err := p.Evaluate(d, h, u)
			if err != nil {
				t.Fatal(err)
			}
			want, err := viewAnswer(view.Materialize(d, pm), u, query)
			if err != nil {
				t.Fatalf("user %s query %q: view eval failed (%v) but rewrite served %v", u, query, err, got)
			}
			if len(got) != len(want) {
				t.Fatalf("user %s query %q: rewrite %v, view %v", u, query, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("user %s query %q row %d: rewrite %q, view %q", u, query, i, got[i], want[i])
				}
			}
		}
	})
}

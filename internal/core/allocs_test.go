package core

import (
	"context"
	"testing"
)

// TestWarmPatientQueryAllocs pins the allocation count of warm patient
// reads through the rewrite tier — the per-request fixed cost the
// patient-portal workload is made of. A regression here (a per-call map,
// a registry lookup, a per-node guard decision) shows up as a jump well
// past the slack.
func TestWarmPatientQueryAllocs(t *testing.T) {
	db := hospital(t)
	s, err := db.SharedSession("franck")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := []struct {
		query string
		value bool
		max   float64
	}{
		// Measured 21, 24 and 15 on go1.24/amd64; three allocations of
		// slack.
		{"/patients/franck/diagnosis/text()", false, 24},
		{"//diagnosis", false, 27},
		{"string(/patients/franck/diagnosis)", true, 18},
	}
	for _, c := range cases {
		run := func() {
			var tier Tier
			var err error
			if c.value {
				_, tier, err = s.QueryValueTierCtx(ctx, c.query, TierAuto)
			} else {
				_, tier, err = s.QueryTierCtx(ctx, c.query, TierAuto)
			}
			if err != nil || tier != TierRewrite {
				t.Fatalf("%s: tier %v, err %v; want the rewrite tier", c.query, tier, err)
			}
		}
		run() // warm: plan cached, guard table filled
		if got := testing.AllocsPerRun(50, run); got > c.max {
			t.Errorf("%s: %.0f allocations per warm query, want at most %.0f", c.query, got, c.max)
		}
	}
}

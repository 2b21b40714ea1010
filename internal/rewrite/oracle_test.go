// Differential oracle for the static query rewriter: for every user and
// every query of a corpus spanning the supported fragment and beyond it,
// the rewrite engine's answer over the *source* document must equal the
// same query over that user's materialized view (view.Materialize, axioms
// 15–17) node-for-node — source identifiers, effective labels, view paths
// and filtered string-values — for the paper policy, the scaled policy and
// seeded random 4-quadrant policies, across documents mutated by seeded
// workload.OpStream sequences. The engine is deliberately built once per
// run and never rebuilt: its plans are document-independent, so surviving
// sixty mutations unchanged is part of the property under test. On
// mismatch the op sequence is greedily minimized, PR 4/5 style.
//
// External test package: the oracle drives the engine purely through its
// exported surface, the same way internal/core does.
package rewrite_test

import (
	"fmt"
	"strings"
	"testing"

	"securexml/internal/policy"
	"securexml/internal/rewrite"
	"securexml/internal/subject"
	"securexml/internal/view"
	"securexml/internal/workload"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
	"securexml/internal/xupdate"
)

const (
	roPatients   = 6
	roRecords    = 2
	roOps        = 60
	roCheckEvery = 10
)

var (
	roSeeds = []int64{1, 2, 3}
	roKinds = []string{"paper", "scaled", "random"}
)

// roQueries covers names, wildcards, text tests, predicates, positional
// predicates, reverse and sideways axes, $USER dependence — including
// RESTRICTED-label node tests, which only an enforcement-aware evaluation
// can answer like the view does.
var roQueries = []string{
	"/patients",
	"/patients/*",
	"/patients/node()",
	"//diagnosis",
	"//diagnosis/text()",
	"//service/text()",
	"/patients/p0",
	"/patients/RESTRICTED",
	"/patients/RESTRICTED/service",
	"//RESTRICTED",
	"//*[text() = 'RESTRICTED']",
	"//*[service = 'cardiology']",
	"/patients/*[2]",
	"/patients/*[last()]",
	"//diagnosis/..",
	"//text()",
	"//record",
	"//record/node()",
	"//note",
	"/patients/*[name() = $USER]",
	"/patients/*[name() = $USER]/descendant-or-self::node()",
	"/patients/descendant-or-self::node()",
	"//diagnosis/following-sibling::*",
	"//service/preceding-sibling::*",
	"//tonsillitis",
	"//*[starts-with(text(), 'pneu')]",
}

// roValueQueries exercise the non-node-set result types plus one node-set
// valued expression (whose rows are compared like a Select answer).
var roValueQueries = []string{
	"count(//diagnosis)",
	"count(//*)",
	"string(/patients/p0/diagnosis)",
	"string(//RESTRICTED)",
	"name(/patients/*[1])",
	"count(//*[name() = 'RESTRICTED'])",
	"sum(//nothing)",
	"normalize-space(/patients/p1/service)",
	"boolean(//RESTRICTED)",
}

// roEnv builds a fresh document, hierarchy and policy of the given kind
// (mirrors the shared-scan oracle's ssEnv).
func roEnv(t *testing.T, seed int64, kind string) (*xmltree.Document, *subject.Hierarchy, *policy.Policy) {
	t.Helper()
	d, err := workload.Hospital(workload.HospitalConfig{Patients: roPatients, RecordsPerPatient: roRecords, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	h, err := workload.HospitalHierarchy(roPatients)
	if err != nil {
		t.Fatal(err)
	}
	var p *policy.Policy
	switch kind {
	case "paper":
		p, err = workload.HospitalPolicy(h)
	case "scaled":
		p, err = workload.ScaledPolicy(h, 10)
	case "random":
		p, err = randomPolicy(h, seed)
	default:
		t.Fatalf("unknown policy kind %q", kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	return d, h, p
}

// randomPolicy draws rules from a path pool spanning all four quadrants of
// the rewriter's partition: (chain-only | out-of-fragment) ×
// ($USER-independent | $USER-dependent). Out-of-fragment read/position
// rules force whole profiles onto the fallback path, so the oracle also
// checks the classifier never serves such a profile.
func randomPolicy(h *subject.Hierarchy, seed int64) (*policy.Policy, error) {
	paths := []string{
		"/patients",                            // chain, indep
		"//service",                            // chain, indep
		"//diagnosis/node()",                   // chain, indep
		"/patients/*/record",                   // chain, indep
		"//record[starts-with(name(), 'rec')]", // chain pred, indep
		"/patients/*[name() = $USER]/descendant-or-self::node()", // chain, dep
		"/patients/*[name() = $USER]",                            // chain, dep
		"/patients/*[1]",                                         // positional pred: fallback, indep
		"//record[note]",                                         // location-path pred: fallback, indep
		"/patients/*[name() = $USER]/record[note]",               // fallback, dep
	}
	subjects := []string{"staff", "secretary", "doctor", "patient", "epidemiologist"}
	p := policy.New()
	n := 8 + int(seed%5)
	for i := 0; i < n; i++ {
		k := (int(seed) + i*7) % len(paths)
		eff := policy.Accept
		if (int(seed)+i)%3 == 0 {
			eff = policy.Deny
		}
		r := policy.Rule{
			Effect:    eff,
			Privilege: policy.Privileges[(int(seed)+i)%len(policy.Privileges)],
			Path:      paths[k],
			Subject:   subjects[(int(seed)+i*3)%len(subjects)],
			Priority:  int64(50 + i),
		}
		if err := p.Add(h, r); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// renderNode renders one answer node the way core.Session presents results:
// source identifier, kind, effective label, view path, filtered
// string-value. Nil sec renders stored labels (the view side, whose labels
// are already effective).
func renderNode(n *xmltree.Node, sec *xpath.Security) string {
	return fmt.Sprintf("%s %v %q %s %q",
		n.ID(), n.Kind(), sec.EffectiveLabel(n), sec.Path(n), sec.StringValue(n))
}

// renderValue renders a full answer: one row per node for node-sets, a
// single "type value" row for atomics.
func renderValue(val xpath.Value, sec *xpath.Security) []string {
	if ns, ok := val.(xpath.NodeSet); ok {
		rows := make([]string, len(ns))
		for i, n := range ns {
			rows[i] = renderNode(n, sec)
		}
		return rows
	}
	return []string{val.TypeName() + " " + val.Str()}
}

// rewriteAnswer evaluates q for user through the engine's plan on the
// frozen snapshot snap, the way internal/core serves it (guard tables
// from SecurityFor), returning the rendered answer or the fallback reason
// a real caller would count.
func rewriteAnswer(pg *rewrite.Program, snap *xmltree.Document, user, q string) ([]string, rewrite.Reason, error) {
	pl, err := pg.PlanFor(q)
	if err != nil {
		return nil, rewrite.ReasonNone, err
	}
	vars := xpath.Vars{"USER": xpath.String(user)}
	var sec *xpath.Security
	var st *rewrite.EvalState
	switch pl.Mode {
	case rewrite.PlanEmpty:
		return nil, rewrite.ReasonNone, nil
	case rewrite.PlanTransparent:
	default:
		sec, st = pg.SecurityFor(user, vars, snap)
	}
	val, err := pl.Eval(snap.Root(), vars, sec)
	if err != nil || (st != nil && st.Err() != nil) {
		return nil, rewrite.ReasonEvalError, nil
	}
	return renderValue(val, sec), rewrite.ReasonNone, nil
}

// viewAnswer evaluates q over the user's materialized view — the reference
// semantics (axioms 15–17 by construction).
func viewAnswer(v *view.View, user, q string) ([]string, error) {
	c, err := xpath.Compile(q)
	if err != nil {
		return nil, err
	}
	val, err := c.Eval(v.Doc.Root(), xpath.Vars{"USER": xpath.String(user)})
	if err != nil {
		return nil, err
	}
	return renderValue(val, nil), nil
}

// runRewrite replays ops over a fresh environment, diffing the rewrite
// answer against the view answer for every user × query at every
// checkpoint. One engine persists across the whole run — its plans are
// document-independent, which every post-mutation checkpoint re-verifies.
// Returns the index of the op whose checkpoint failed (-1 on success).
func runRewrite(t *testing.T, seed int64, kind string, ops []*xupdate.Op) (int, string) {
	t.Helper()
	d, h, p := roEnv(t, seed, kind)
	eng := rewrite.NewEngine(p, h)
	queries := append(append([]string{}, roQueries...), roValueQueries...)
	check := func() string {
		snap := d.Clone() // the published generation a reader would pin
		snap.Freeze()
		for _, u := range h.Users() {
			pg, reason := eng.ProgramFor(u)
			if pg == nil {
				if reason != rewrite.ReasonRuleFragment {
					return fmt.Sprintf("user %s: nil program with reason %v", u, reason)
				}
				continue // out-of-fragment profile: the qfilter/view tiers own it
			}
			pm, err := p.Evaluate(d, h, u)
			if err != nil {
				return fmt.Sprintf("evaluate(%s): %v", u, err)
			}
			v := view.Materialize(d, pm)
			for _, q := range queries {
				got, reason, err := rewriteAnswer(pg, snap, u, q)
				if err != nil {
					return fmt.Sprintf("user %s query %s: %v", u, q, err)
				}
				if reason == rewrite.ReasonEvalError {
					continue // counted fallback: the lower tiers answer
				}
				want, err := viewAnswer(v, u, q)
				if err != nil {
					return fmt.Sprintf("user %s query %s: view eval failed (%v) but rewrite served", u, q, err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					return fmt.Sprintf("user %s query %s:\n rewrite: %v\n view:    %v", u, q, got, want)
				}
			}
		}
		return ""
	}
	if diff := check(); diff != "" {
		return 0, "initial document: " + diff
	}
	for i, op := range ops {
		if _, err := xupdate.Execute(d, op, nil); err != nil {
			return i, fmt.Sprintf("execute: %v", err)
		}
		if (i+1)%roCheckEvery != 0 && i != len(ops)-1 {
			continue
		}
		if diff := check(); diff != "" {
			return i, fmt.Sprintf("after op %d (%s %s): %s", i, op.Kind, op.Select, diff)
		}
	}
	return -1, ""
}

// minimizeRewriteOps greedily drops ops while the sequence still fails.
func minimizeRewriteOps(t *testing.T, seed int64, kind string, ops []*xupdate.Op) []*xupdate.Op {
	t.Helper()
	cur := append([]*xupdate.Op(nil), ops...)
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur); i++ {
			trial := append(append([]*xupdate.Op(nil), cur[:i]...), cur[i+1:]...)
			if idx, _ := runRewrite(t, seed, kind, trial); idx >= 0 {
				cur = trial
				changed = true
				i--
			}
		}
	}
	return cur
}

func dumpRewriteOps(ops []*xupdate.Op) string {
	var b strings.Builder
	for i, op := range ops {
		fmt.Fprintf(&b, "  %2d: %s select=%q", i, op.Kind, op.Select)
		if op.NewValue != "" {
			fmt.Fprintf(&b, " vnew=%q", op.NewValue)
		}
		if op.Content != nil {
			fmt.Fprintf(&b, " content=%q", op.Content.XML())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestRewriteDifferentialOracle(t *testing.T) {
	for _, kind := range roKinds {
		for _, seed := range roSeeds {
			kind, seed := kind, seed
			t.Run(fmt.Sprintf("%s/seed=%d", kind, seed), func(t *testing.T) {
				d, _, _ := roEnv(t, seed, kind)
				stream := workload.OpStream(workload.OpConfig{Doc: d, Seed: seed})
				var ops []*xupdate.Op
				for i := 0; i < roOps; i++ {
					op, err := stream.Next()
					if err != nil {
						t.Fatal(err)
					}
					ops = append(ops, op)
					if _, err := xupdate.Execute(d, op, nil); err != nil {
						t.Fatalf("generating op %d: %v", i, err)
					}
				}
				if idx, diff := runRewrite(t, seed, kind, ops); idx >= 0 {
					minimized := minimizeRewriteOps(t, seed, kind, ops[:idx+1])
					t.Fatalf("rewrite mismatch at op %d:\n%s\nminimized reproducer (%d ops, %s seed %d):\n%s",
						idx, diff, len(minimized), kind, seed, dumpRewriteOps(minimized))
				}
			})
		}
	}
}

// TestPaperProfilesRewritable pins the fragment boundary on the paper
// policy itself: every axiom-13 rule is chain-only, so no user of the
// hospital scenario ever pays for a view on the read path — and the oracle
// above is not vacuously skipping anyone.
func TestPaperProfilesRewritable(t *testing.T) {
	_, h, p := roEnv(t, 1, "paper")
	eng := rewrite.NewEngine(p, h)
	for _, u := range h.Users() {
		if pg, reason := eng.ProgramFor(u); pg == nil {
			t.Errorf("user %s: fell back (%v); every paper profile is chain-only", u, reason)
		}
	}
}

// TestRandomPoliciesExerciseBothPaths keeps the random-policy oracle
// honest: across the seeds, some profiles must compile and some must fall
// back, or the 4-quadrant pool has stopped covering the partition.
func TestRandomPoliciesExerciseBothPaths(t *testing.T) {
	var compiled, fellBack int
	for _, seed := range roSeeds {
		_, h, p := roEnv(t, seed, "random")
		eng := rewrite.NewEngine(p, h)
		for _, u := range h.Users() {
			if pg, _ := eng.ProgramFor(u); pg != nil {
				compiled++
			} else {
				fellBack++
			}
		}
	}
	if compiled == 0 || fellBack == 0 {
		t.Fatalf("random policies: compiled=%d fellBack=%d, want both > 0", compiled, fellBack)
	}
}

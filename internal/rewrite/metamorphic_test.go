// Metamorphic properties of the rewriter — relations that must hold
// between answers without knowing any answer's expected value:
//
//  1. idempotence: rewriting is a fixpoint. Re-planning the same query
//     (cached or from a freshly built engine) yields the same
//     classification and the identical answer — a rewritten query
//     rewritten again is itself.
//  2. full privilege: for a profile that reads everything, the rewritten
//     answer equals the raw query over the unfiltered source document.
//  3. narrowing: appending deny rules (the shape PR 8's repair engine
//     emits) never grows a rewritten answer's node-set, for positive
//     label-test-free queries.
package rewrite_test

import (
	"fmt"
	"testing"

	"securexml/internal/policy"
	"securexml/internal/rewrite"
	"securexml/internal/subject"
	"securexml/internal/workload"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
)

// metaAnswer evaluates q for user and renders it, failing the test on any
// error or fallback: metamorphic inputs are all chosen inside the fragment.
func metaAnswer(t *testing.T, eng *rewrite.Engine, root *xmltree.Node, user, q string) []string {
	t.Helper()
	pg, reason := eng.ProgramFor(user)
	if pg == nil {
		t.Fatalf("user %s: unexpected fallback (%v)", user, reason)
	}
	rows, reason, err := rewriteAnswer(pg, root.Document(), user, q)
	if err != nil {
		t.Fatalf("user %s query %s: %v", user, q, err)
	}
	if reason != rewrite.ReasonNone {
		t.Fatalf("user %s query %s: unexpected fallback (%v)", user, q, reason)
	}
	return rows
}

// TestRewriteIdempotent: same policy, same query — same plan mode, same
// answer, whether the plan is served from the cache (second PlanFor on one
// engine returns the same plan) or rebuilt from scratch on a second engine.
func TestRewriteIdempotent(t *testing.T) {
	for _, kind := range []string{"paper", "scaled"} {
		d, h, p := roEnv(t, 1, kind)
		e1 := rewrite.NewEngine(p, h)
		e2 := rewrite.NewEngine(p, h)
		for _, u := range h.Users() {
			pg1, _ := e1.ProgramFor(u)
			pg2, _ := e2.ProgramFor(u)
			if pg1 == nil || pg2 == nil {
				t.Fatalf("%s user %s: unexpected fallback", kind, u)
			}
			for _, q := range roQueries {
				pl1, err := pg1.PlanFor(q)
				if err != nil {
					t.Fatal(err)
				}
				pl1again, err := pg1.PlanFor(q)
				if err != nil {
					t.Fatal(err)
				}
				if pl1again != pl1 {
					t.Errorf("%s user %s query %s: re-planning did not hit the plan cache", kind, u, q)
				}
				pl2, err := pg2.PlanFor(q)
				if err != nil {
					t.Fatal(err)
				}
				if pl1.Mode != pl2.Mode {
					t.Errorf("%s user %s query %s: mode %v vs %v across engines", kind, u, q, pl1.Mode, pl2.Mode)
				}
				a1 := metaAnswer(t, e1, d.Root(), u, q)
				a2 := metaAnswer(t, e2, d.Root(), u, q)
				if fmt.Sprint(a1) != fmt.Sprint(a2) {
					t.Errorf("%s user %s query %s:\n first:  %v\n second: %v", kind, u, q, a1, a2)
				}
			}
		}
	}
}

// fullReadPolicy grants read on every node — elements, text, attributes and
// attribute values — to the given subjects.
func fullReadPolicy(t *testing.T, h *subject.Hierarchy, subjects ...string) *policy.Policy {
	t.Helper()
	p := policy.New()
	prio := int64(10)
	for _, subj := range subjects {
		for _, path := range []string{
			"/descendant-or-self::node()",
			"//@*",
			"//@*/descendant-or-self::node()",
		} {
			err := p.Add(h, policy.Rule{
				Effect: policy.Accept, Privilege: policy.Read,
				Path: path, Subject: subj, Priority: prio,
			})
			if err != nil {
				t.Fatal(err)
			}
			prio++
		}
	}
	return p
}

// TestRewriteFullPrivilegeIdentity: under a policy that grants read on
// everything, the rewritten answer of every query equals the raw query
// over the unfiltered source document — the enforcement layer vanishes.
func TestRewriteFullPrivilegeIdentity(t *testing.T) {
	d, h, _ := roEnv(t, 2, "paper")
	p := fullReadPolicy(t, h, "staff", "patient")
	eng := rewrite.NewEngine(p, h)
	for _, u := range []string{"laporte", "beaufort", "p0"} {
		for _, q := range append(append([]string{}, roQueries...), roValueQueries...) {
			got := metaAnswer(t, eng, d.Root(), u, q)
			c, err := xpath.Compile(q)
			if err != nil {
				t.Fatal(err)
			}
			val, err := c.Eval(d.Root(), xpath.Vars{"USER": xpath.String(u)})
			if err != nil {
				t.Fatal(err)
			}
			want := renderValue(val, nil)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("user %s query %s:\n rewritten: %v\n raw:       %v", u, q, got, want)
			}
		}
	}
}

// TestTransparencyStaysConservative pins the classifier's attribute
// frontier: even the full-read policy is not classified PlanTransparent,
// because transparency quantifies over all root-to-node words — including
// attribute-descendant words no exact pattern family can cover — so the
// identity above is reached through guarded evaluation, never by skipping
// the filter on a hunch.
func TestTransparencyStaysConservative(t *testing.T) {
	_, h, _ := roEnv(t, 1, "paper")
	p := fullReadPolicy(t, h, "staff")
	eng := rewrite.NewEngine(p, h)
	pg, _ := eng.ProgramFor("laporte")
	if pg == nil {
		t.Fatal("full-read profile fell back")
	}
	if pg.Transparent() {
		t.Error("full-read profile classified transparent; the word search must keep covering attribute-descendant words")
	}
}

// narrowQueries are positive (no not(), no RESTRICTED label tests)
// queries, for which hiding or restricting more nodes can only shrink the
// answer. Label tests on RESTRICTED and negated predicates are excluded by
// design: substitution can legitimately grow those answers.
var narrowQueries = []string{
	"/patients",
	"/patients/node()",
	"//node()",
	"//text()",
	"/patients/descendant-or-self::node()",
	"//record",
	"//diagnosis",
	"//service/text()",
	"/patients/*[name() = $USER]",
}

// metaIDs extracts the source-identifier column of an answer's rows.
func metaIDs(t *testing.T, eng *rewrite.Engine, root *xmltree.Node, user, q string) map[string]bool {
	t.Helper()
	pg, reason := eng.ProgramFor(user)
	if pg == nil {
		t.Fatalf("user %s: unexpected fallback (%v)", user, reason)
	}
	pl, err := pg.PlanFor(q)
	if err != nil {
		t.Fatal(err)
	}
	vars := xpath.Vars{"USER": xpath.String(user)}
	var sec *xpath.Security
	if pl.Mode == rewrite.PlanGuarded {
		sec, _ = pg.SecurityFor(user, vars, root.Document())
	}
	if pl.Mode == rewrite.PlanEmpty {
		return map[string]bool{}
	}
	ns, err := pl.Select(root, vars, sec)
	if err != nil {
		t.Fatalf("user %s query %s: %v", user, q, err)
	}
	ids := make(map[string]bool, len(ns))
	for _, n := range ns {
		ids[n.ID().String()] = true
	}
	return ids
}

// TestRewriteNarrowingMonotonic: denying more never shows more. For each
// base policy, append high-priority deny read+position rules (the repair
// engine's narrowing shape) and check every rewritten answer's node-set is
// contained in the base answer's.
func TestRewriteNarrowingMonotonic(t *testing.T) {
	denyPaths := []string{"//diagnosis", "/patients/*/record", "//service"}
	for _, seed := range roSeeds {
		d, h, base := roEnv(t, seed, "paper")
		narrowed, err := workload.HospitalPolicy(h)
		if err != nil {
			t.Fatal(err)
		}
		prio := int64(900)
		denyPath := denyPaths[int(seed)%len(denyPaths)]
		for _, subj := range []string{"staff", "patient"} {
			for _, priv := range []policy.Privilege{policy.Read, policy.Position} {
				err := narrowed.Add(h, policy.Rule{
					Effect: policy.Deny, Privilege: priv,
					Path: denyPath, Subject: subj, Priority: prio,
				})
				if err != nil {
					t.Fatal(err)
				}
				prio++
			}
		}
		baseEng := rewrite.NewEngine(base, h)
		narrowEng := rewrite.NewEngine(narrowed, h)
		for _, u := range h.Users() {
			for _, q := range narrowQueries {
				before := metaIDs(t, baseEng, d.Root(), u, q)
				after := metaIDs(t, narrowEng, d.Root(), u, q)
				for id := range after {
					if !before[id] {
						t.Errorf("seed %d deny %s user %s query %s: node %s appears only after narrowing",
							seed, denyPath, u, q, id)
					}
				}
			}
		}
	}
}

// Differential oracle for the guard tables: every node a table decides
// must carry exactly the mask the per-node reference ruleMask derives,
// every node the evaluator can reach must be decided by the table, and the
// served filter must agree with ruleMask on every node whatsoever —
// including the fallback cases, nodes below a hidden ancestor and nodes of
// another document. Covers the paper policy and seeded random chain-only
// policies with attribute rules, over documents with attributes mutated by
// workload.OpStream. White-box (package rewrite): it reads the tables.
package rewrite

import (
	"fmt"
	"math/rand"
	"testing"

	"securexml/internal/policy"
	"securexml/internal/subject"
	"securexml/internal/workload"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
	"securexml/internal/xupdate"
)

// chainPaths are chain-only rule paths, attribute steps included.
var chainPaths = []string{
	"/patients",
	"/patients/*",
	"//service",
	"//diagnosis/node()",
	"/patients/*/record",
	"//record[starts-with(name(), 'rec')]",
	"/patients/*[name() = $USER]/descendant-or-self::node()",
	"/patients/*[name() = $USER]",
	"/descendant-or-self::node()",
	"//@id",
	"//@id/node()",
	"/patients/*/attribute::*",
	"//*[name() = 'diagnosis']",
	"//text()",
	"//record/@ward | //service",
}

// randomChainPolicy draws read and position rules from chainPaths, so
// every profile compiles to a program.
func randomChainPolicy(h *subject.Hierarchy, seed int64) (*policy.Policy, error) {
	rng := rand.New(rand.NewSource(seed))
	subjects := []string{"staff", "secretary", "doctor", "patient", "epidemiologist"}
	p := policy.New()
	for i, n := 0, 6+rng.Intn(8); i < n; i++ {
		r := policy.Rule{
			Effect:    policy.Accept,
			Privilege: policy.Read,
			Path:      chainPaths[rng.Intn(len(chainPaths))],
			Subject:   subjects[rng.Intn(len(subjects))],
			Priority:  int64(10 + i),
		}
		if rng.Intn(3) == 0 {
			r.Effect = policy.Deny
		}
		if rng.Intn(2) == 0 {
			r.Privilege = policy.Position
		}
		if err := p.Add(h, r); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// attributedHospital is the hospital document with an id attribute on
// every patient and a ward attribute on every record.
func attributedHospital(t *testing.T, seed int64) *xmltree.Document {
	t.Helper()
	d, err := workload.Hospital(workload.HospitalConfig{Patients: 5, RecordsPerPatient: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range d.RootElement().Children() {
		if _, err := d.SetAttribute(p, "id", p.Label()); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range d.ElementsByName("record") {
		if _, err := d.SetAttribute(r, "ward", fmt.Sprintf("w%d", i%3)); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// checkTables compares, for every user with a program, the guard table of
// snap and the served filter against ruleMask on every node of snap, and
// the filter against ruleMask on every node of other (another document
// whose ordinals overlap snap's).
func checkTables(t *testing.T, eng *Engine, h *subject.Hierarchy, snap, other *xmltree.Document) {
	t.Helper()
	for _, u := range h.Users() {
		pg, _ := eng.ProgramFor(u)
		if pg == nil {
			t.Fatalf("user %s: chain-only profile fell back", u)
		}
		vars := xpath.Vars{"USER": xpath.String(u)}
		sec, st := pg.SecurityFor(u, vars, snap)
		tab, _ := cached(pg, u)
		if tab == nil || tab.err != nil {
			t.Fatalf("user %s: no cached table for the frozen snapshot", u)
		}
		// hidden: some ancestor (or the node itself) has mask 0, so a
		// guarded evaluation never reaches the node's descendants.
		var walk func(n *xmltree.Node, underHidden bool)
		walk = func(n *xmltree.Node, underHidden bool) {
			want, err := pg.ruleMask(n, vars)
			if err != nil {
				t.Fatal(err)
			}
			got := tab.mask[n.Ord()]
			switch {
			case got&maskFilled != 0:
				if got&^maskFilled != want {
					t.Fatalf("user %s %s: table mask %#x, ruleMask %#x", u, n.Path(), got&^maskFilled, want)
				}
			case !underHidden:
				t.Fatalf("user %s %s: reachable node missing from the table", u, n.Path())
			}
			checkServed(t, u, sec, n, want)
			hide := underHidden || (want == 0 && n.Kind() != xmltree.KindDocument)
			for _, a := range n.Attributes() {
				walk(a, hide)
			}
			for _, c := range n.Children() {
				walk(c, hide)
			}
		}
		walk(snap.Root(), false)
		for _, n := range other.Nodes() {
			want, err := pg.ruleMask(n, vars)
			if err != nil {
				t.Fatal(err)
			}
			checkServed(t, u, sec, n, want)
		}
		if err := st.Err(); err != nil {
			t.Fatalf("user %s: %v", u, err)
		}
	}
}

// checkServed compares the filter's verdict on n with the reference mask.
func checkServed(t *testing.T, u string, sec *xpath.Security, n *xmltree.Node, want uint8) {
	t.Helper()
	if n.Kind() == xmltree.KindDocument {
		return
	}
	label := n.Label()
	if want&maskRead == 0 {
		label = xmltree.Restricted
	}
	if sec.Visible(n) != (want != 0) || (want != 0 && sec.Label(n) != label) {
		t.Fatalf("user %s %s (doc %p): served visible=%v label=%q, ruleMask %#x",
			u, n.Path(), n.Document(), sec.Visible(n), sec.Label(n), want)
	}
}

func TestGuardTablesMatchRuleMask(t *testing.T) {
	kinds := []string{"paper", "random"}
	for _, kind := range kinds {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", kind, seed), func(t *testing.T) {
				d := attributedHospital(t, seed)
				h, err := workload.HospitalHierarchy(5)
				if err != nil {
					t.Fatal(err)
				}
				var p *policy.Policy
				if kind == "paper" {
					p, err = workload.HospitalPolicy(h)
				} else {
					p, err = randomChainPolicy(h, seed)
				}
				if err != nil {
					t.Fatal(err)
				}
				eng := NewEngine(p, h)
				stream := workload.OpStream(workload.OpConfig{Doc: d, Seed: seed})
				for i := 0; i <= 40; i++ {
					if i%10 == 0 {
						// The published generation (dense ordinals) against
						// the live document (ordinals with gaps and
						// insertions), whose nodes the tables must not serve.
						snap := d.Clone()
						snap.Freeze()
						checkTables(t, eng, h, snap, d)
					}
					op, err := stream.Next()
					if err != nil {
						t.Fatal(err)
					}
					if _, err := xupdate.Execute(d, op, nil); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
				}
			})
		}
	}
}

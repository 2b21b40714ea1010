package xpath

import (
	"fmt"
	"strings"
	"testing"

	"securexml/internal/xmltree"
)

// bankDoc is shaped like the paper's hospital document, with attributes and
// mixed content so attribute steps and text tests are exercised.
const bankDoc = `<patients>
  <franck id="f1"><service>otolaryngology</service><diagnosis code="t">tonsillitis</diagnosis></franck>
  <robert id="r1"><service>pneumology</service><diagnosis>pneumonia</diagnosis></robert>
  <nested><franck><diagnosis>shadow</diagnosis></franck></nested>
</patients>`

func parseBankDoc(t *testing.T) *xmltree.Document {
	t.Helper()
	d, err := xmltree.Parse(strings.NewReader(bankDoc), xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// bankExprs spans the chain-only fragment: rooted paths, descendant gaps,
// unions, attribute steps, self-contained predicates, $USER.
var bankExprs = []string{
	"/descendant-or-self::node()",
	"//diagnosis/node()",
	"/patients",
	"/patients/*[name() = $USER]/descendant-or-self::node()",
	"//diagnosis",
	"//@id",
	"//franck/diagnosis | //robert/service",
	"/patients/*/service/text()",
	"//diagnosis[starts-with(name(), 'diag')]",
	"/patients/franck/attribute::id",
}

// TestBankMatchesSelect: one bank walk must select, per expression, exactly
// the node set the per-expression Select does.
func TestBankMatchesSelect(t *testing.T) {
	d := parseBankDoc(t)
	vars := Vars{"USER": String("franck")}
	var ms []*NodeMatcher
	var cs []*Compiled
	for _, src := range bankExprs {
		c, err := Compile(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		m, ok := c.NodeMatcher()
		if !ok {
			t.Fatalf("%s: expected inside the chain-only fragment", src)
		}
		cs = append(cs, c)
		ms = append(ms, m)
	}
	got, err := NewBank(ms).Select(d, vars)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cs {
		want, err := c.Select(d.Root(), vars)
		if err != nil {
			t.Fatalf("%s: %v", bankExprs[i], err)
		}
		if diff := compareNodeSets(got[i], want); diff != "" {
			t.Errorf("%s: bank vs Select: %s", bankExprs[i], diff)
		}
	}
}

// TestBankAgainstMatch cross-checks the bank against the per-node matcher
// over every node of the document.
func TestBankAgainstMatch(t *testing.T) {
	d := parseBankDoc(t)
	vars := Vars{"USER": String("robert")}
	for _, src := range bankExprs {
		c, err := Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		m, _ := c.NodeMatcher()
		sets, err := NewBank([]*NodeMatcher{m}).Select(d, vars)
		if err != nil {
			t.Fatal(err)
		}
		inBank := make(map[*xmltree.Node]bool, len(sets[0]))
		for _, n := range sets[0] {
			inBank[n] = true
		}
		for _, n := range d.Nodes() {
			ok, err := m.Match(n, vars)
			if err != nil {
				t.Fatal(err)
			}
			if ok != inBank[n] {
				t.Errorf("%s: node %s (%s): Match=%v bank=%v", src, n.ID(), n.Label(), ok, inBank[n])
			}
		}
	}
}

// TestBankDedupUnionAlts: a union whose alternatives overlap must still
// report each node once.
func TestBankDedupUnionAlts(t *testing.T) {
	d := parseBankDoc(t)
	c := MustCompile("//diagnosis | /patients/*/diagnosis")
	m, ok := c.NodeMatcher()
	if !ok {
		t.Fatal("expected matchable")
	}
	sets, err := NewBank([]*NodeMatcher{m}).Select(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[*xmltree.Node]bool)
	for _, n := range sets[0] {
		if seen[n] {
			t.Fatalf("node %s reported twice", n.ID())
		}
		seen[n] = true
	}
	want, err := c.Select(d.Root(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets[0]) != len(want) {
		t.Fatalf("got %d nodes, want %d", len(sets[0]), len(want))
	}
}

// TestBankUndefinedVariable: evaluation errors surface instead of silently
// dropping rules.
func TestBankUndefinedVariable(t *testing.T) {
	d := parseBankDoc(t)
	c := MustCompile("/patients/*[name() = $USER]")
	m, _ := c.NodeMatcher()
	if _, err := NewBank([]*NodeMatcher{m}).Select(d, nil); err == nil {
		t.Fatal("want undefined-variable error, got nil")
	}
}

// TestBankEmpty: a bank over zero matchers is a no-op walk.
func TestBankEmpty(t *testing.T) {
	d := parseBankDoc(t)
	sets, err := NewBank(nil).Select(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 0 {
		t.Fatalf("got %d sets, want 0", len(sets))
	}
}

func compareNodeSets(got []*xmltree.Node, want NodeSet) string {
	g := make(map[*xmltree.Node]bool, len(got))
	for _, n := range got {
		g[n] = true
	}
	w := make(map[*xmltree.Node]bool, len(want))
	for _, n := range want {
		w[n] = true
	}
	var missing, extra []string
	for n := range w {
		if !g[n] {
			missing = append(missing, fmt.Sprintf("%s(%s)", n.ID(), n.Label()))
		}
	}
	for n := range g {
		if !w[n] {
			extra = append(extra, fmt.Sprintf("%s(%s)", n.ID(), n.Label()))
		}
	}
	if len(missing) == 0 && len(extra) == 0 {
		if len(got) != len(want) {
			return fmt.Sprintf("duplicates: got %d nodes, want %d", len(got), len(want))
		}
		return ""
	}
	return fmt.Sprintf("missing=%v extra=%v", missing, extra)
}

// TestUsesVariable covers every expression position a variable can hide in.
func TestUsesVariable(t *testing.T) {
	cases := []struct {
		src  string
		uses bool
	}{
		{"/patients/*[name() = $USER]", true},
		{"$USER", true},
		{"//diagnosis[contains($USER, 'a')]", true},
		{"//a[$OTHER = 1]", false},
		{"/patients/*[name() = concat($USER, '')]", true},
		{"//diagnosis/node()", false},
		{"count(//a[. = $USER])", true},
		{"-$USER", true},
		{"($USER)[1]/x", true},
		{"//a | //b[$USER]", true},
	}
	for _, tc := range cases {
		c, err := Compile(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if got := c.UsesVariable("USER"); got != tc.uses {
			t.Errorf("UsesVariable(%q, USER) = %v, want %v", tc.src, got, tc.uses)
		}
	}
}

// TestBankVisitReportsMatchesAndPrunes: with every matcher in one bank,
// each visited node's hits are exactly the matchers whose Match selects it,
// ascending and once each; live is false only where no matcher can select
// a descendant; and a node is visited exactly when fn accepted its parent.
func TestBankVisitReportsMatchesAndPrunes(t *testing.T) {
	d := parseBankDoc(t)
	vars := Vars{"USER": String("franck")}
	var ms []*NodeMatcher
	for _, src := range bankExprs {
		c, err := Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		m, _ := c.NodeMatcher()
		ms = append(ms, m)
	}
	// Reject robert's subtree: nothing below it may be visited.
	visited := map[*xmltree.Node]bool{}
	var dead []*xmltree.Node
	err := NewBank(ms).Visit(d, vars, func(n *xmltree.Node, hits []int, live bool) bool {
		if visited[n] {
			t.Fatalf("%s visited twice", n.Path())
		}
		visited[n] = true
		var want []int
		for i, m := range ms {
			ok, err := m.Match(n, vars)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				want = append(want, i)
			}
		}
		if fmt.Sprint(hits) != fmt.Sprint(want) {
			t.Errorf("%s: hits %v, want %v", n.Path(), hits, want)
		}
		if !live {
			dead = append(dead, n)
		}
		return n.Label() != "robert"
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range d.Nodes() {
		p := n.Parent()
		want := p == nil || (visited[p] && p.Label() != "robert")
		if visited[n] != want {
			t.Errorf("%s: visited %v, want %v", n.Path(), visited[n], want)
		}
	}
	for _, n := range dead {
		for _, k := range n.Subtree()[1:] {
			for i, m := range ms {
				if ok, _ := m.Match(k, vars); ok {
					t.Errorf("%s reported dead, but %s selects descendant %s", n.Path(), bankExprs[i], k.Path())
				}
			}
		}
	}
}

// TestBankVisitReportsBelowDeadStates: a matcher that can no longer select
// anything below a node reports live=false there, and the walk still
// visits the node's children (with no hits) when fn accepts the node.
func TestBankVisitReportsBelowDeadStates(t *testing.T) {
	d := parseBankDoc(t)
	c, err := Compile("/patients/franck")
	if err != nil {
		t.Fatal(err)
	}
	m, _ := c.NodeMatcher()
	var below []string
	err = NewBank([]*NodeMatcher{m}).Visit(d, nil, func(n *xmltree.Node, hits []int, live bool) bool {
		if p := n.Parent(); p != nil && p.Label() == "franck" && p.Parent().Label() == "patients" {
			if len(hits) != 0 || live {
				t.Errorf("%s: hits %v live %v below the match", n.Path(), hits, live)
			}
			below = append(below, n.Path())
		}
		if n.Label() == "franck" && n.Parent().Label() == "patients" {
			if len(hits) != 1 || live {
				t.Errorf("franck: hits %v live %v, want [0] false", hits, live)
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(below) != 3 { // @id, service, diagnosis
		t.Fatalf("children of franck visited: %v", below)
	}
}

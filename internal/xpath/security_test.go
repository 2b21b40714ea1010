package xpath

// In-package tests for the Security filter hooks (the qfilter package
// property-tests the full view-equivalence; these pin the primitive
// behaviours).

import (
	"strings"
	"testing"

	"securexml/internal/xmltree"
)

// secDoc: <r><pub>open</pub><priv><deep>hidden</deep></priv><alias>x</alias></r>
// with priv invisible and alias relabeled RESTRICTED.
func secFixture(t *testing.T) (*xmltree.Document, *Security) {
	t.Helper()
	d, err := xmltree.ParseString(
		`<r><pub>open</pub><priv><deep>hidden</deep></priv><alias>x</alias></r>`,
		xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sec := &Security{
		Visible: func(n *xmltree.Node) bool {
			return n.Label() != "priv" // hereditary: evaluator prunes below
		},
		Label: func(n *xmltree.Node) string {
			if n.Label() == "alias" {
				return xmltree.Restricted
			}
			return n.Label()
		},
	}
	return d, sec
}

func selFiltered(t *testing.T, d *xmltree.Document, sec *Security, path string) NodeSet {
	t.Helper()
	c := MustCompile(path)
	ns, err := c.SelectFiltered(d.Root(), nil, sec)
	if err != nil {
		t.Fatalf("SelectFiltered(%q): %v", path, err)
	}
	return ns
}

func TestSecurityPrunesSubtrees(t *testing.T) {
	d, sec := secFixture(t)
	if got := selFiltered(t, d, sec, "//priv"); len(got) != 0 {
		t.Error("invisible node selected")
	}
	if got := selFiltered(t, d, sec, "//deep"); len(got) != 0 {
		t.Error("descendant of invisible node selected (pruning not hereditary)")
	}
	if got := selFiltered(t, d, sec, "//pub"); len(got) != 1 {
		t.Error("visible node lost")
	}
	if got := selFiltered(t, d, sec, "/r/*"); len(got) != 2 {
		t.Errorf("children = %d, want 2 (pub, alias)", len(got))
	}
	// Sibling axes skip invisible nodes too.
	if got := selFiltered(t, d, sec, "//pub/following-sibling::*"); len(got) != 1 {
		t.Errorf("following-sibling through invisible = %d nodes", len(got))
	}
	if got := selFiltered(t, d, sec, "//RESTRICTED/preceding-sibling::*"); len(got) != 1 {
		t.Errorf("preceding-sibling = %d nodes", len(got))
	}
	if got := selFiltered(t, d, sec, "//pub/following::*"); len(got) != 1 {
		t.Errorf("following axis = %d nodes", len(got))
	}
}

func TestSecurityEffectiveLabels(t *testing.T) {
	d, sec := secFixture(t)
	// The stored name no longer matches; RESTRICTED does.
	if got := selFiltered(t, d, sec, "//alias"); len(got) != 0 {
		t.Error("hidden label matched")
	}
	if got := selFiltered(t, d, sec, "//RESTRICTED"); len(got) != 1 {
		t.Error("effective label did not match")
	}
	// name() observes the effective label.
	c := MustCompile("name(/r/*[2]/following-sibling::*[1])")
	v, err := c.EvalFiltered(d.Root(), nil, sec)
	if err != nil {
		t.Fatal(err)
	}
	_ = v // position depends on pruning; just ensure no panic and a string
	if _, ok := v.(String); !ok {
		t.Errorf("name() returned %s", v.TypeName())
	}
}

func TestSecurityStringValue(t *testing.T) {
	d, sec := secFixture(t)
	// string(/r) concatenates only visible text.
	c := MustCompile("string(/r)")
	v, err := c.EvalFiltered(d.Root(), nil, sec)
	if err != nil {
		t.Fatal(err)
	}
	if v.Str() != "openx" {
		t.Errorf("filtered string(/r) = %q, want %q", v.Str(), "openx")
	}
	// Unfiltered sees everything.
	v2, err := c.Eval(d.Root(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Str() != "openhiddenx" {
		t.Errorf("unfiltered string(/r) = %q", v2.Str())
	}
	// Nil-Security fast path of stringValue.
	var nilSec *Security
	if nilSec.stringValue(d.RootElement()) != "openhiddenx" {
		t.Error("nil security stringValue wrong")
	}
	// Label-only filter (no Visible).
	labelOnly := &Security{Label: func(n *xmltree.Node) string { return strings.ToUpper(n.Label()) }}
	if got := labelOnly.stringValue(d.RootElement().Children()[0]); got != "OPEN" {
		t.Errorf("label-only stringValue = %q", got)
	}
}

func TestSecurityFilteredErrors(t *testing.T) {
	d, sec := secFixture(t)
	c := MustCompile("1 + 1")
	if _, err := c.SelectFiltered(d.Root(), nil, sec); err == nil {
		t.Error("atomic result accepted by SelectFiltered")
	}
	if _, err := c.EvalFiltered(nil, nil, sec); err == nil {
		t.Error("nil context accepted")
	}
}

func TestCompiledSource(t *testing.T) {
	c := MustCompile("//a[1]")
	if c.Source() != "//a[1]" {
		t.Errorf("Source = %q", c.Source())
	}
}

func TestTokenKindStrings(t *testing.T) {
	// Error messages must name every token readably.
	kinds := []tokenKind{
		tokEOF, tokNumber, tokLiteral, tokName, tokVariable, tokLParen,
		tokRParen, tokLBracket, tokRBracket, tokDot, tokDotDot, tokAt,
		tokComma, tokColonColon, tokSlash, tokSlashSlash, tokUnion, tokPlus,
		tokMinus, tokEq, tokNeq, tokLt, tokLeq, tokGt, tokGeq, tokStar,
		tokMultiply, tokAnd, tokOr, tokDiv, tokMod, tokenKind(99),
	}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("token kind %d has empty String", int(k))
		}
	}
}

func TestAxisAndOpStrings(t *testing.T) {
	for ax := AxisChild; ax <= AxisAncestorOrSelf; ax++ {
		if ax.String() == "" || strings.HasPrefix(ax.String(), "axis(") {
			t.Errorf("axis %d renders as %q", int(ax), ax.String())
		}
	}
	if Axis(99).String() != "axis(99)" {
		t.Error("unknown axis String")
	}
	for op := opOr; op <= opUnion; op++ {
		if strings.HasPrefix(op.String(), "op(") {
			t.Errorf("operator %d renders as %q", int(op), op.String())
		}
	}
	if binaryOp(99).String() != "op(99)" {
		t.Error("unknown op String")
	}
}

// TestFilteredStepAllocsFlat: predicate-free steps under a filter walk the
// axis in place, so a guarded //name query allocates O(log n) for its
// growing result, not one candidate slice per visited node.
func TestFilteredStepAllocsFlat(t *testing.T) {
	allocs := func(records int) float64 {
		var b strings.Builder
		b.WriteString("<r>")
		for i := 0; i < records; i++ {
			b.WriteString("<rec><svc>s</svc><diag>d</diag></rec>")
		}
		b.WriteString("</r>")
		d, err := xmltree.ParseString(b.String(), xmltree.ParseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sec := &Security{Visible: func(n *xmltree.Node) bool { return n.Label() != "svc" }}
		c := MustCompile("//diag")
		return testing.AllocsPerRun(20, func() {
			if ns, err := c.SelectFiltered(d.Root(), nil, sec); err != nil || len(ns) != records {
				t.Fatalf("%d nodes, err %v", len(ns), err)
			}
		})
	}
	small, large := allocs(50), allocs(2000)
	if large > 2*small {
		t.Fatalf("//diag allocates %.0f at 50 records but %.0f at 2000: per-node allocation", small, large)
	}
}

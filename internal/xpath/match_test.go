package xpath

import (
	"testing"

	"securexml/internal/xmltree"
)

const matchDocXML = `<patients>
  <franck vip="yes"><service>otolaryngology</service><diagnosis>tonsillitis</diagnosis></franck>
  <robert><service>pneumology</service><diagnosis b="2">pneumonia</diagnosis></robert>
  <diagnosis>stray</diagnosis>
</patients>`

func matchDoc(t *testing.T) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString(matchDocXML, xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestNodeMatcherAgainstSelect compares the per-node matcher with full
// evaluation for every node of the document, over expressions covering the
// whole supported fragment (including the paper's twelve rule paths).
func TestNodeMatcherAgainstSelect(t *testing.T) {
	d := matchDoc(t)
	vars := Vars{"USER": String("robert")}
	exprs := []string{
		"/",
		"/patients",
		"/patients/*",
		"/patients/franck",
		"//diagnosis",
		"//diagnosis/node()",
		"/descendant-or-self::node()",
		"/descendant::text()",
		"/patients/*/service/text()",
		"/patients/*[name() = $USER]/descendant-or-self::node()",
		"/patients/*[name() = 'franck']/diagnosis",
		"//@vip",
		"//attribute::node()",
		"//@vip/text()",
		"/patients//text()",
		"//diagnosis[starts-with(name(), 'diag')]/node()",
		"//*[contains(name(), 'serv') or name() = 'diagnosis']",
		"//*[not(name() = 'service')]",
		"//diagnosis | //service",
		"/patients/child::comment()",
		"descendant-or-self::node()", // relative: same root context
		"self::node()",
		"//*[string-length(name()) > 7]",
		"//*[translate(name(), 'abc', 'xyz') = 'servize']",
		"//*[true()]",
		"//*[false()]",
	}
	for _, src := range exprs {
		c, err := Compile(src)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		m, ok := c.NodeMatcher()
		if !ok {
			t.Fatalf("%q: expected a NodeMatcher, got ineligible", src)
		}
		for _, n := range d.Nodes() {
			want, err := c.Matches(n, vars)
			if err != nil {
				t.Fatalf("%q Matches(%s): %v", src, n.ID(), err)
			}
			got, err := m.Match(n, vars)
			if err != nil {
				t.Fatalf("%q Match(%s): %v", src, n.ID(), err)
			}
			if got != want {
				t.Errorf("%q on %s [%s]: matcher=%v, full eval=%v", src, n.ID(), n.Path(), got, want)
			}
		}
	}
}

// TestNodeMatcherRejectsUnsupported asserts everything outside the
// fragment is refused rather than mis-answered.
func TestNodeMatcherRejectsUnsupported(t *testing.T) {
	rejected := []string{
		"//diagnosis[2]",               // positional predicate
		"//diagnosis[position() = 1]",  // position()
		"//diagnosis[last()]",          // last()
		"//*[text() = 'pneumonia']",    // location path in predicate
		"//*[service]",                 // location path in predicate
		"//*[count(node()) > 1]",       // node-set function
		"//*[string() = 'x']",          // context string-value
		"//*[string-length() > 2]",     // context string-value
		"//*[normalize-space() = 'x']", // context string-value
		"//diagnosis/parent::*",        // upward axis
		"//diagnosis/ancestor::node()", // upward axis
		"//diagnosis/following-sibling::node()",
		"/patients/*[$USER]",   // top-level variable (truthiness of any value)
		"//*['x']",             // top-level literal
		"$v/diagnosis",         // variable-rooted path
		"//diagnosis | //a[1]", // one union arm outside the fragment
		"count(//diagnosis)",   // not a path at all
		"//*[name(..) = 'x']",  // name with a node-set argument
		"//*[sum(node()) > 0]", // node-set function
	}
	for _, src := range rejected {
		c, err := Compile(src)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		if _, ok := c.NodeMatcher(); ok {
			t.Errorf("%q: expected NodeMatcher to refuse, got one", src)
		}
	}
}

// TestNodeMatcherDetachedNode: nodes outside any document never match.
func TestNodeMatcherDetachedNode(t *testing.T) {
	d := matchDoc(t)
	n := d.RootElement().Children()[0] // franck
	if err := d.Remove(n); err != nil {
		t.Fatal(err)
	}
	m, ok := MustCompile("//franck").NodeMatcher()
	if !ok {
		t.Fatal("no matcher")
	}
	got, err := m.Match(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("detached node matched")
	}
}

// TestNodeMatcherUndefinedVariable: evaluation errors surface, they are
// not silently treated as non-matches.
func TestNodeMatcherUndefinedVariable(t *testing.T) {
	d := matchDoc(t)
	m, ok := MustCompile("/patients/*[name() = $USER]").NodeMatcher()
	if !ok {
		t.Fatal("no matcher")
	}
	if _, err := m.Match(d.RootElement().Children()[0], nil); err == nil {
		t.Error("want undefined-variable error, got nil")
	}
}

// TestPaperPolicyPathsAllMatchable: every path of the axiom-13 policy is
// inside the matchable fragment — the eligibility gate the incremental
// view path depends on.
func TestPaperPolicyPathsAllMatchable(t *testing.T) {
	paths := []string{
		"/descendant-or-self::node()",
		"//diagnosis/node()",
		"/patients",
		"/patients/*[name() = $USER]/descendant-or-self::node()",
		"/patients/*",
		"//diagnosis",
	}
	for _, p := range paths {
		if _, ok := MustCompile(p).NodeMatcher(); !ok {
			t.Errorf("paper rule path %q not matchable", p)
		}
	}
}

// TestNameEqualityFastPath: matchStepAt's allocation-free form of
// name() = 'lit' / name() = $V must decide exactly like generic predicate
// evaluation, on every node kind and every binding shape — and shapes it
// must not take (unbound or non-string variables) still error or coerce
// like the generic path.
func TestNameEqualityFastPath(t *testing.T) {
	d := matchDoc(t)
	preds := []string{
		"name() = $V", "$V = name()", "name() = 'franck'", "'vip' = name()",
		"name() = ''", "name() = $N", "name() = $B", "name() = $U",
		"name() != $V", "name() = name()",
	}
	bindings := []Vars{
		{"V": String("franck"), "N": Number(1), "B": Boolean(true)},
		{"V": String("vip"), "N": Number(0), "B": Boolean(false)},
		{"V": String(""), "N": Number(2), "B": Boolean(true)},
		nil,
	}
	for _, src := range preds {
		c, err := Compile("self::node()[" + src + "]")
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		st := c.root.(*pathExpr).steps[0]
		for _, vars := range bindings {
			for _, n := range d.Nodes() {
				got, gotErr := matchStepAt(st, n, vars)
				v, wantErr := st.preds[0].eval(&evalCtx{node: n, pos: 1, size: 1, vars: vars})
				if (gotErr != nil) != (wantErr != nil) {
					t.Fatalf("%s at %s (%v): error %v, generic error %v", src, n.Path(), vars, gotErr, wantErr)
				}
				if wantErr == nil && got != v.Bool() {
					t.Errorf("%s at %s (%v): fast %v, generic %v", src, n.Path(), vars, got, v.Bool())
				}
			}
		}
	}
	// The table above must exercise element, attribute and text nodes.
	kinds := map[xmltree.Kind]bool{}
	for _, n := range d.Nodes() {
		kinds[n.Kind()] = true
	}
	for _, k := range []xmltree.Kind{xmltree.KindElement, xmltree.KindAttribute, xmltree.KindText} {
		if !kinds[k] {
			t.Fatalf("test document has no %s node", k)
		}
	}
}

// TestNameEqualityFastPathAllocs pins the point of the fast path: matching
// name() = $USER allocates nothing per node.
func TestNameEqualityFastPathAllocs(t *testing.T) {
	d := matchDoc(t)
	c, err := Compile("self::*[name() = $USER]")
	if err != nil {
		t.Fatal(err)
	}
	st := c.root.(*pathExpr).steps[0]
	vars := Vars{"USER": String("robert")}
	n := d.RootElement().Children()[1]
	if allocs := testing.AllocsPerRun(100, func() {
		if ok, _ := matchStepAt(st, n, vars); !ok {
			t.Fatal("robert does not match")
		}
	}); allocs != 0 {
		t.Fatalf("name() = $USER allocates %.0f per node", allocs)
	}
}

package xmltree

import (
	"testing"
	"unsafe"
)

// ordDoc is a small document with attributes, text and nested elements.
func ordDoc(t *testing.T) *Document {
	t.Helper()
	d, err := ParseString(`<a x="1"><b y="2">t</b><c/><d><e>u</e></d></a>`, ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// checkOrds asserts the ordinal invariants: the document node is 0, every
// node's ordinal is unique and below OrdBound.
func checkOrds(t *testing.T, d *Document) map[int]*Node {
	t.Helper()
	if d.Root().Ord() != 0 {
		t.Fatalf("document node ord = %d, want 0", d.Root().Ord())
	}
	seen := map[int]*Node{}
	d.Root().Walk(func(n *Node) bool {
		o := n.Ord()
		if o < 0 || o >= d.OrdBound() {
			t.Fatalf("%s: ord %d outside [0, %d)", n.Path(), o, d.OrdBound())
		}
		if prev := seen[o]; prev != nil {
			t.Fatalf("%s and %s share ord %d", prev.Path(), n.Path(), o)
		}
		seen[o] = n
		return true
	})
	return seen
}

// checkDense asserts that a freshly numbered copy gives ordinals 0..n-1
// in document order.
func checkDense(t *testing.T, d *Document) {
	t.Helper()
	checkOrds(t, d)
	for i, n := range d.Nodes() {
		if n.Ord() != i {
			t.Fatalf("%s: ord %d, want %d (document order)", n.Path(), n.Ord(), i)
		}
	}
	if d.OrdBound() != d.Len() {
		t.Fatalf("OrdBound %d, want Len %d", d.OrdBound(), d.Len())
	}
}

func TestOrdinalsUniqueAndStable(t *testing.T) {
	d := ordDoc(t)
	checkOrds(t, d)
	e := d.ElementsByName("e")[0]
	before, bound := e.Ord(), d.OrdBound()

	// Insertions take fresh ordinals; removals leave gaps and never
	// renumber the survivors.
	b := d.ElementsByName("b")[0]
	n, err := d.InsertBefore(b, KindElement, "z")
	if err != nil {
		t.Fatal(err)
	}
	if n.Ord() != bound || d.OrdBound() != bound+1 {
		t.Fatalf("inserted ord %d, bound %d; want %d, %d", n.Ord(), d.OrdBound(), bound, bound+1)
	}
	if err := d.Remove(d.ElementsByName("c")[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := d.SetAttribute(e, "w", "v"); err != nil {
		t.Fatal(err)
	}
	checkOrds(t, d)
	if e.Ord() != before {
		t.Fatalf("mutations renumbered e: %d -> %d", before, e.Ord())
	}
}

func TestCloneAndProjectNumberDensely(t *testing.T) {
	d := ordDoc(t)
	if err := d.Remove(d.ElementsByName("c")[0]); err != nil {
		t.Fatal(err)
	}
	checkDense(t, d.Clone())
	p := d.Project(func(n *Node, _ string) (string, bool) { return n.Label(), n.Label() != "b" })
	checkDense(t, p)
}

func TestFreezeSeqOrdersSnapshots(t *testing.T) {
	d1 := ordDoc(t)
	d2 := d1.Clone()
	if d1.FreezeSeq() != 0 {
		t.Fatal("unfrozen document has a freeze sequence")
	}
	d1.Freeze()
	d2.Freeze()
	s1, s2 := d1.FreezeSeq(), d2.FreezeSeq()
	if s1 == 0 || s2 <= s1 {
		t.Fatalf("freeze sequences %d, %d: want nonzero and increasing", s1, s2)
	}
	d1.Freeze()
	if d1.FreezeSeq() != s1 {
		t.Fatal("refreezing changed the freeze sequence")
	}
	if d1.Clone().FreezeSeq() != 0 {
		t.Fatal("a clone of a frozen document carries its freeze sequence")
	}
}

// TestNodeSizeClass keeps Node within the 112-byte allocation size class:
// a document holds one per node, so a larger class costs every document.
func TestNodeSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(Node{}); sz > 112 {
		t.Fatalf("Node is %d bytes, above the 112-byte size class", sz)
	}
}

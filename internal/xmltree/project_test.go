package xmltree

import (
	"fmt"
	"math/rand"
	"testing"
)

// mirrorProjection is the reference for Project: MirrorChild every kept
// node in document order, pruning below dropped ones.
func mirrorProjection(t *testing.T, src *Document, keep func(*Node, string) (string, bool)) *Document {
	t.Helper()
	dst := New(src.Scheme())
	var walk func(dstParent, srcParent *Node)
	mirrorAll := func(dstParent *Node, srcs []*Node) {
		for _, s := range srcs {
			label, ok := keep(s, s.ID().String())
			if !ok {
				continue
			}
			n, err := dst.MirrorChild(dstParent, s.Kind(), label, s.ID())
			if err != nil {
				t.Fatal(err)
			}
			walk(n, s)
		}
	}
	walk = func(dstParent, srcParent *Node) {
		mirrorAll(dstParent, srcParent.Attributes())
		mirrorAll(dstParent, srcParent.Children())
	}
	walk(dst.Root(), src.Root())
	return dst
}

func ids(ns []*Node) string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.ID().String()
	}
	return fmt.Sprint(out)
}

// TestProjectMatchesMirroring checks Project against MirrorChild
// mirroring under seeded random filters: same tree, identifiers, labels,
// name index, version count and serialization.
func TestProjectMatchesMirroring(t *testing.T) {
	src := MustParse(`<patients><franck a="1" b="2"><service>ent</service><diagnosis>tonsillitis<rec id="x">r</rec></diagnosis></franck>` +
		`<robert><service>onco</service><diagnosis>pneumonia</diagnosis></robert><ward/></patients>`)
	for seed := int64(0); seed < 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		decisions := map[string]int{}
		for _, n := range src.Nodes() {
			decisions[n.ID().String()] = rng.Intn(3)
		}
		keep := func(n *Node, id string) (string, bool) {
			if id != n.ID().String() {
				t.Fatalf("keep got id %s for node %s", id, n.ID())
			}
			switch decisions[id] {
			case 0:
				return "", false
			case 1:
				return Restricted, true
			default:
				return n.Label(), true
			}
		}
		got, want := src.Project(keep), mirrorProjection(t, src, keep)
		if !Equal(got, want) || got.XML() != want.XML() || got.Len() != want.Len() || got.Version() != want.Version() {
			t.Fatalf("seed %d: projection differs\ngot:\n%s\nwant:\n%s", seed, got.Sketch(), want.Sketch())
		}
		for _, name := range []string{"patients", "franck", "diagnosis", "rec", Restricted} {
			if ids(got.ElementsByName(name)) != ids(want.ElementsByName(name)) {
				t.Fatalf("seed %d: name index for %s differs", seed, name)
			}
		}
		for _, n := range got.Nodes() {
			if n.Document() != got || got.NodeByID(n.ID()) != n {
				t.Fatalf("seed %d: node %s not owned or indexed", seed, n.ID())
			}
		}
	}
}

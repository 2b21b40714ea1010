package xpath

import (
	"math/bits"

	"securexml/internal/xmltree"
)

// Bank evaluates many NodeMatchers in a single document walk — YFilter-style
// multi-query evaluation. Where R separate Select calls traverse the
// document R times (once per rule path), a Bank advances R NFA state sets
// together during one depth-first walk: at every node, each live matcher
// lands its pending descendant gaps, closes its self-transitions and
// forwards child/attribute transitions to the node's children, exactly as
// NodeMatcher.Match does per chain position. Matchers whose state set goes
// empty are dropped for the whole subtree, so cost concentrates where paths
// are still alive.
//
// The supported inputs are NodeMatchers (the chain-only fragment of
// match.go); callers route expressions outside the fragment through
// per-expression Select instead. Select collects each matcher's node set;
// Visit exposes the walk itself, so a caller can fold every node's matches
// into a decision derived from its parent's NFA state and prune on it.
type Bank struct {
	entries []bankEntry
	n       int // number of matchers
}

// bankEntry is one union alternative of one matcher.
type bankEntry struct {
	matcher int
	steps   []step
}

// NewBank builds a bank over the given matchers. The result slices of
// Select are indexed like ms.
func NewBank(ms []*NodeMatcher) *Bank {
	b := &Bank{n: len(ms)}
	for i, m := range ms {
		for _, steps := range m.alts {
			b.entries = append(b.entries, bankEntry{matcher: i, steps: steps})
		}
	}
	return b
}

// bankState is one live NFA instance at the current node: the exact and gap
// bitmasks of matchSteps for this chain position.
type bankState struct {
	entry      int
	exact, gap uint64
}

// Select walks doc once and returns, per matcher, the nodes the matcher
// selects, in document order (attributes before children, like Node.Walk).
// The result set of matcher i equals { n : ms[i].Match(n, vars) } for the
// matchers the bank was built over.
func (b *Bank) Select(doc *xmltree.Document, vars Vars) ([][]*xmltree.Node, error) {
	out := make([][]*xmltree.Node, b.n)
	err := b.Visit(doc, vars, func(n *xmltree.Node, hits []int, live bool) bool {
		for _, m := range hits {
			out[m] = append(out[m], n)
		}
		return live
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Visit walks doc top-down in document order (attributes before children,
// like Node.Walk), advancing every matcher's NFA across each tree edge, and
// calls fn once per visited node. hits lists the indices of the matchers
// that select n — hits contains i exactly when ms[i].Match(n, vars) holds —
// in ascending order, each once; the slice is reused after fn returns.
// live reports whether any matcher could still select a node below n.
//
// fn's result decides whether the walk enters n's attributes and children:
// each of them is visited (and reported, with hits possibly empty) only if
// fn returned true for n. So a caller that needs a decision for every node
// it can reach prunes on its own verdict, while one that only collects
// matches prunes on !live. The document node is visited first.
func (b *Bank) Visit(doc *xmltree.Document, vars Vars, fn func(n *xmltree.Node, hits []int, live bool) bool) error {
	root := doc.Root()
	if root == nil {
		return errNilContext
	}
	w := &bankWalker{b: b, vars: vars, fn: fn}
	live := make([]bankState, len(b.entries))
	for i := range b.entries {
		live[i] = bankState{entry: i, exact: 1} // zero steps consumed at the document node
	}
	return w.walk(root, live, 0)
}

// bankWalker carries one Visit's traversal state. bufs holds one reusable
// state slice per tree depth: the buffer filled for edge n→c is consumed
// entirely by the recursion into c before the next sibling edge reuses it,
// so the whole walk allocates O(depth) slices instead of O(edges). hits is
// the one reusable buffer handed to fn.
type bankWalker struct {
	b    *Bank
	vars Vars
	fn   func(n *xmltree.Node, hits []int, live bool) bool
	bufs [][]bankState
	hits []int
}

func (w *bankWalker) buf(depth int) []bankState {
	for len(w.bufs) <= depth {
		w.bufs = append(w.bufs, nil)
	}
	return w.bufs[depth][:0]
}

// walk advances the incoming states over n, reports n's matches, and
// descends into n's attributes and children when fn asks for it. incoming
// holds, per live entry, the exact bits forwarded by the parent's
// child/attribute transitions and the gap bits propagated downward; walk
// owns the slice and filters it in place.
func (w *bankWalker) walk(n *xmltree.Node, incoming []bankState, depth int) error {
	cur := incoming[:0]
	hits := w.hits[:0]
	for _, st := range incoming {
		steps := w.b.entries[st.entry].steps
		ns, matched, err := advanceAt(st, steps, n, w.vars)
		if err != nil {
			return err
		}
		// Entries stay in ascending matcher order, so two alternatives of
		// the same matcher selecting n are adjacent.
		if m := w.b.entries[st.entry].matcher; matched && (len(hits) == 0 || hits[len(hits)-1] != m) {
			hits = append(hits, m)
		}
		// The accept bit cannot advance further, so a state holding only
		// it is dead below n.
		if ns.exact&^(1<<uint(len(steps)))|ns.gap != 0 {
			cur = append(cur, ns)
		}
	}
	w.hits = hits
	if !w.fn(n, hits, len(cur) > 0) {
		return nil
	}
	for _, a := range n.Attributes() {
		if err := w.descend(cur, a, depth); err != nil {
			return err
		}
	}
	for _, c := range n.Children() {
		if err := w.descend(cur, c, depth); err != nil {
			return err
		}
	}
	return nil
}

// descend forwards the current states across the tree edge n→c and visits
// c. Mirrors matchSteps' inter-node transition: gaps do not cross into
// attribute nodes, child steps feed non-attribute children, attribute
// steps feed attributes.
func (w *bankWalker) descend(cur []bankState, c *xmltree.Node, depth int) error {
	intoAttr := c.Kind() == xmltree.KindAttribute
	next := w.buf(depth)
	for _, st := range cur {
		steps := w.b.entries[st.entry].steps
		ns := bankState{entry: st.entry}
		if !intoAttr {
			ns.gap = st.gap
		}
		for rem := st.exact; rem != 0; rem &= rem - 1 {
			i := bits.TrailingZeros64(rem)
			if i >= len(steps) {
				break
			}
			stp := steps[i]
			if (stp.axis == AxisChild && !intoAttr) || (stp.axis == AxisAttribute && intoAttr) {
				ok, err := matchStepAt(stp, c, w.vars)
				if err != nil {
					return err
				}
				if ok {
					ns.exact |= 1 << uint(i+1)
				}
			}
		}
		if ns.exact|ns.gap != 0 {
			next = append(next, ns)
		}
	}
	w.bufs[depth] = next // keep any growth for the next edge at this depth
	return w.walk(c, next, depth+1)
}

// advanceAt applies matchSteps' per-chain-position processing for one entry
// at node n: land the gaps carried to this node, then close
// self-transitions ascending (a newly consumed step can enable the next one
// at the same node) and open descendant gaps.
func advanceAt(st bankState, steps []step, n *xmltree.Node, vars Vars) (bankState, bool, error) {
	exact, gap := st.exact, st.gap
	for rem := gap; rem != 0; rem &= rem - 1 {
		i := bits.TrailingZeros64(rem)
		if i >= len(steps) {
			break
		}
		ok, err := matchStepAt(steps[i], n, vars)
		if err != nil {
			return st, false, err
		}
		if ok {
			exact |= 1 << uint(i+1)
		}
	}
	for i := 0; i < len(steps); i++ {
		if exact&(1<<uint(i)) == 0 {
			continue
		}
		stp := steps[i]
		switch stp.axis {
		case AxisSelf, AxisDescendantOrSelf:
			ok, err := matchStepAt(stp, n, vars)
			if err != nil {
				return st, false, err
			}
			if ok {
				exact |= 1 << uint(i+1)
			}
		}
		if stp.axis == AxisDescendant || stp.axis == AxisDescendantOrSelf {
			gap |= 1 << uint(i)
		}
	}
	st.exact, st.gap = exact, gap
	return st, exact&(1<<uint(len(steps))) != 0, nil
}

// UsesVariable reports whether the compiled expression references $name
// anywhere — in a step predicate, a filter base, or a function argument.
// Expressions that do not are independent of the binding: they evaluate
// identically whatever value (or no value) name is bound to.
func (c *Compiled) UsesVariable(name string) bool {
	return exprUsesVar(c.root, name)
}

// exprUsesVar walks the expression tree looking for $name.
func exprUsesVar(e expr, name string) bool {
	switch v := e.(type) {
	case varRef:
		return string(v) == name
	case *pathExpr:
		if v.base != nil && exprUsesVar(v.base, name) {
			return true
		}
		for _, st := range v.steps {
			for _, p := range st.preds {
				if exprUsesVar(p, name) {
					return true
				}
			}
		}
		return false
	case *filterExpr:
		if exprUsesVar(v.primary, name) {
			return true
		}
		for _, p := range v.preds {
			if exprUsesVar(p, name) {
				return true
			}
		}
		return false
	case *binaryExpr:
		return exprUsesVar(v.l, name) || exprUsesVar(v.r, name)
	case *negExpr:
		return exprUsesVar(v.e, name)
	case *funcCall:
		for _, a := range v.args {
			if exprUsesVar(a, name) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

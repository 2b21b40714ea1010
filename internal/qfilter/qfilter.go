// Package qfilter implements the alternative read-enforcement strategy the
// paper's conclusion sketches (§5, after Fundulaki & Marx [9]): instead of
// materializing the user's view and evaluating queries on it, queries are
// evaluated directly on the source document through a security filter that
// reflects the user's privileges — hiding invisible nodes (hereditarily)
// and substituting RESTRICTED for position-only labels.
//
// The paper leaves open "how answers to filtered queries could include
// RESTRICTED labels"; this package's answer is the xpath.Security label
// hook, and the package's property tests establish the theorem the paper
// asks for: for every query, filtered evaluation on the source is
// answer-equivalent to plain evaluation on the materialized view.
//
// The trade-off is quantified by the BenchmarkQueryFilter ablation: the
// filtered path wins for one-shot queries on large documents (no O(n)
// materialization), while the view path amortizes over many queries per
// policy epoch — which is why internal/core materializes and caches.
//
// internal/rewrite is the static refinement of this package: where qfilter
// computes the full axiom-14 permission mask (one policy evaluation per
// document version) and then filters, rewrite re-derives the same
// per-node decision during evaluation from chain-only rules, holding no
// per-document state at all. The session ladder (core.Session.QueryTiered)
// tries rewrite first and lands here when the profile or query leaves the
// chain-only fragment; both rungs are pinned answer-equivalent to the view
// by this package's property tests and internal/rewrite's oracle.
package qfilter

import (
	"securexml/internal/policy"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
)

// ForPerms builds the security filter equivalent to the axiom-15–17 view
// for the user whose permissions are pm:
//
//   - a node is visible iff the user holds read or position on it (the
//     hereditary "parent must be selected" condition of axioms 16–17 is
//     supplied by the evaluator, which never descends below an invisible
//     node);
//   - a visible node's effective label is its own with read, RESTRICTED
//     with position only (axiom 17).
//
// Every privilege it checks counts as an enforcement decision.
func ForPerms(pm *policy.Perms) *xpath.Security {
	return forPerms(pm, policy.Decision.Has)
}

// ForPermsUncounted is ForPerms for diagnostic surfaces (Session.Explain):
// the same filter, counting no enforcement decision.
func ForPermsUncounted(pm *policy.Perms) *xpath.Security {
	return forPerms(pm, policy.Decision.Peek)
}

func forPerms(pm *policy.Perms, has func(policy.Decision, policy.Privilege) bool) *xpath.Security {
	return &xpath.Security{
		Visible: func(n *xmltree.Node) bool {
			if n.Kind() == xmltree.KindDocument {
				return true // axiom 15
			}
			d := pm.Decide(n)
			return has(d, policy.Read) || has(d, policy.Position)
		},
		Label: func(n *xmltree.Node) string {
			if n.Kind() == xmltree.KindDocument {
				return n.Label()
			}
			if has(pm.Decide(n), policy.Read) {
				return n.Label()
			}
			return xmltree.Restricted
		},
	}
}

// Select evaluates path on the source document under the user's filter and
// returns the matching *source* nodes in document order. The answer set
// equals { source node of v : v in Select(view, path) }.
func Select(doc *xmltree.Document, pm *policy.Perms, path string, vars xpath.Vars) (xpath.NodeSet, error) {
	c, err := xpath.Compile(path)
	if err != nil {
		return nil, err
	}
	return c.SelectFiltered(doc.Root(), vars, ForPerms(pm))
}

// Eval evaluates an arbitrary expression (node-set or atomic) under the
// user's filter.
func Eval(doc *xmltree.Document, pm *policy.Perms, path string, vars xpath.Vars) (xpath.Value, error) {
	c, err := xpath.Compile(path)
	if err != nil {
		return nil, err
	}
	return c.EvalFiltered(doc.Root(), vars, ForPerms(pm))
}

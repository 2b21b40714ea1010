// Package view implements the read access control of §4.4.1: deriving the
// pruned document view a user is permitted to see (axioms 15–17).
//
// The view strategy:
//
//   - the document node always belongs to the view (axiom 15);
//   - a node is selected iff its parent is selected and the user holds the
//     read privilege — it keeps its label (axiom 16) — or only the position
//     privilege — it appears with the RESTRICTED label (axiom 17);
//   - nodes with neither privilege disappear together with their entire
//     subtree, even parts the user could otherwise read (the "parent must
//     be selected" condition).
//
// Selected nodes keep their persistent identifiers — views are never
// renumbered, which is also how the secured write path maps view selections
// back to source nodes (§4.4.2). The identifiers are internal only and are
// not serialized to users.
package view

import (
	"context"

	"securexml/internal/labeling"
	"securexml/internal/obs"
	"securexml/internal/policy"
	"securexml/internal/xmltree"
)

// Telemetry: materialization is the dominant cost of the read path (axioms
// 15–17), so every derivation records its duration and node accounting.
var (
	matStage      = obs.Stage("view_materialize")
	matTotal      = obs.Default().Counter("xmlsec_view_materializations_total")
	matNodes      = obs.Default().Counter("xmlsec_view_nodes_total")
	matRestricted = obs.Default().Counter("xmlsec_view_restricted_total")
	matHidden     = obs.Default().Counter("xmlsec_view_hidden_total")
)

// View is a user's authorized view of a source document.
type View struct {
	// Doc is the materialized view document. Node identifiers coincide with
	// the source document's.
	Doc *xmltree.Document
	// User is the subject the view was derived for.
	User string
	// SourceVersion is the source document version the view reflects.
	SourceVersion uint64
	// Restricted counts nodes shown with the RESTRICTED label.
	Restricted int
	// Hidden counts source nodes not shown at all.
	Hidden int
}

// Materialize derives the view of src for the user whose permissions are pm
// (axioms 15–17).
func Materialize(src *xmltree.Document, pm *policy.Perms) *View {
	return MaterializeCtx(context.Background(), src, pm)
}

// MaterializeCtx is Materialize with request-scoped tracing: under an
// active trace it records a view_materialize span annotated with the node
// accounting.
func MaterializeCtx(ctx context.Context, src *xmltree.Document, pm *policy.Perms) *View {
	_, sp := obs.StartSpanCtx(ctx, "view_materialize", matStage)
	v := &View{User: pm.User(), SourceVersion: src.Version()}
	v.Doc = src.Project(func(n *xmltree.Node, id string) (string, bool) {
		label, sel := selectLabelID(pm, n, id)
		if label == xmltree.Restricted && sel {
			v.Restricted++
		}
		return label, sel
	})
	v.Hidden = src.Len() - v.Doc.Len()
	sp.AnnotateInt("nodes", int64(v.Doc.Len()))
	sp.AnnotateInt("restricted", int64(v.Restricted))
	sp.AnnotateInt("hidden", int64(v.Hidden))
	sp.End()
	matTotal.Inc()
	matNodes.Add(uint64(v.Doc.Len()))
	matRestricted.Add(uint64(v.Restricted))
	matHidden.Add(uint64(v.Hidden))
	return v
}

// selectLabel decides visibility of one node: (original label, true) with
// read; (RESTRICTED, true) with position only (axiom 17); ("", false)
// otherwise.
func selectLabel(pm *policy.Perms, n *xmltree.Node) (string, bool) {
	return selectLabelID(pm, n, n.ID().String())
}

// selectLabelID is selectLabel for a node whose identifier string the
// caller already holds.
func selectLabelID(pm *policy.Perms, n *xmltree.Node, id string) (string, bool) {
	switch {
	case pm.HasID(id, policy.Read):
		return n.Label(), true
	case pm.HasID(id, policy.Position):
		return xmltree.Restricted, true
	default:
		return "", false
	}
}

// Snapshot returns an independent deep copy of the view. Incremental
// maintenance patches a cached view in place, so callers that hand a view
// out of the owning lock's scope must snapshot it first. Identifiers are
// preserved by Clone, so write-path mapping still works on the copy.
func (v *View) Snapshot() *View {
	return &View{
		Doc:           v.Doc.Clone(),
		User:          v.User,
		SourceVersion: v.SourceVersion,
		Restricted:    v.Restricted,
		Hidden:        v.Hidden,
	}
}

// Visible reports whether the node with the given source identifier appears
// in the view (with either its label or RESTRICTED).
func (v *View) Visible(id string) bool {
	l, err := labeling.Parse(id)
	if err != nil {
		return false
	}
	return v.Doc.NodeByID(l) != nil
}

// IsRestricted reports whether the node appears in the view with the
// RESTRICTED label. A node legitimately labeled "RESTRICTED" in the source
// is indistinguishable by design (the label semantics is Sandhu & Jajodia's
// cover story).
func (v *View) IsRestricted(id string) bool {
	l, err := labeling.Parse(id)
	if err != nil {
		return false
	}
	n := v.Doc.NodeByID(l)
	return n != nil && n.Label() == xmltree.Restricted
}

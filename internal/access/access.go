// Package access implements the write access controls of §4.4.2 (axioms
// 18–25): XUpdate operations whose target nodes are selected on the user's
// *view* rather than on the source database, killing the SQL-style covert
// channel of §2.2.
//
// Per-operation privilege requirements (§4.4.2), with n the selected node:
//
//	xupdate:rename        update on n, and read on n (a node shown with the
//	                      RESTRICTED label cannot be renamed, because that
//	                      would overwrite a label the user may not see)
//	xupdate:update        update AND read on each child of n in the view
//	                      (axioms 20–21)
//	xupdate:append        insert on n (axiom 22)
//	xupdate:insert-before insert on the parent of n (axiom 23)
//	xupdate:insert-after  insert on the parent of n (axiom 24)
//	xupdate:remove        delete on n (axiom 25); invisible descendants are
//	                      deleted silently — the paper prefers
//	                      confidentiality over integrity
//
// Operations may succeed on some selected nodes and fail on others; the
// Result records both.
//
// One executor, Apply, serves two read sides: the reference Execute*
// functions select on a materialized view, and the database's commit
// rounds select on the source through the writer's view filter
// (xpath.Security), which shows the same nodes with the same labels, so
// the view itself is never built on a served write.
package access

import (
	"context"
	"errors"
	"fmt"

	"securexml/internal/obs"
	"securexml/internal/policy"
	"securexml/internal/subject"
	"securexml/internal/view"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
	"securexml/internal/xupdate"
)

// ErrUnknownUser is returned when the session user is not in the hierarchy.
var ErrUnknownUser = errors.New("access: unknown user")

// Telemetry: the secured write pipeline records the view-select and the
// axiom 18–25 application loop as stages, plus per-kind op outcomes and
// per-node applied/skipped counts.
var (
	selectStage  = obs.Stage("xpath_eval")
	applyStage   = obs.Stage("xupdate_apply")
	nodesApplied = obs.Default().Counter("xmlsec_xupdate_nodes_total", "result", "applied")
	nodesSkipped = obs.Default().Counter("xmlsec_xupdate_nodes_total", "result", "skipped")
)

// outcome classifies one secured operation for xmlsec_xupdate_ops_total.
type outcome int

const (
	outcomeApplied outcome = iota
	outcomeSkipped
	outcomeNoop
	outcomeError
	numOutcomes
)

// MetricLabel returns the outcome's label; every branch is a literal so
// labels stay compile-time bounded (xmlsec-vet obslabel).
func (o outcome) MetricLabel() string {
	switch o {
	case outcomeApplied:
		return "applied"
	case outcomeSkipped:
		return "skipped"
	case outcomeNoop:
		return "noop"
	default:
		return "error"
	}
}

// opCounters holds the xmlsec_xupdate_ops_total handle of every (kind,
// outcome) pair of the six executable operations (kinds Update through
// Remove), resolved once so the commit leader takes no registry lock per
// operation. The label drops the wire prefix: kind="update", not
// kind="xupdate:update".
var opCounters = func() (c [xupdate.Remove + 1][numOutcomes]*obs.Counter) {
	for k := range c {
		for o := range c[k] {
			c[k][o] = obs.Default().Counter("xmlsec_xupdate_ops_total",
				"kind", xupdate.Kind(k).MetricLabel(), "outcome", outcome(o).MetricLabel())
		}
	}
	return
}()

// opOutcome counts one secured operation by kind and outcome. Kinds
// outside the executable six (rejected by Validate before they get here)
// still count, through the registry lookup.
func opOutcome(k xupdate.Kind, o outcome) {
	if k >= 0 && int(k) < len(opCounters) {
		opCounters[k][o].Inc()
		return
	}
	obs.Default().Counter("xmlsec_xupdate_ops_total",
		"kind", k.MetricLabel(), "outcome", o.MetricLabel()).Inc()
}

// Execute applies op on behalf of user: permissions are evaluated (axiom
// 14), the user's view is materialized (axioms 15–17), the op's select path
// runs on the view with $USER bound, and each selected node is updated in
// the source document if and only if the §4.4.2 privilege requirements
// hold. It returns the operation result and the view that was used.
func Execute(doc *xmltree.Document, h *subject.Hierarchy, pol *policy.Policy, user string, op *xupdate.Op) (*xupdate.Result, *view.View, error) {
	return ExecuteWithVars(doc, h, pol, user, op, nil)
}

// ExecuteWithVars is Execute with additional XPath variable bindings (e.g.
// xupdate:variable bindings threaded through a modification sequence).
// $USER always binds to the session user. Dynamic content (value-of
// placeholders) is expanded against the user's *view*, so inserted copies
// can never carry data the user may not read.
func ExecuteWithVars(doc *xmltree.Document, h *subject.Hierarchy, pol *policy.Policy, user string, op *xupdate.Op, extra xpath.Vars) (*xupdate.Result, *view.View, error) {
	return ExecuteWithVarsCtx(context.Background(), doc, h, pol, user, op, extra)
}

// ExecuteWithVarsCtx is ExecuteWithVars with request-scoped tracing: under
// an active trace the policy evaluation, view materialization, view-select
// and axiom 18–25 application loop all appear as child spans, the latter
// annotated with the op kind and per-node accounting.
//
// It derives the view from scratch with the reference evaluator on every
// call and selects on it, which makes it the oracle for the database's
// commit rounds: those select through the writer's view filter on the
// source instead (a Reader with a Security), never materializing a view.
func ExecuteWithVarsCtx(ctx context.Context, doc *xmltree.Document, h *subject.Hierarchy, pol *policy.Policy, user string, op *xupdate.Op, extra xpath.Vars) (*xupdate.Result, *view.View, error) {
	if err := Check(h, user, op); err != nil {
		return nil, nil, err
	}
	pm, err := pol.EvaluateCtx(ctx, doc, h, user)
	if err != nil {
		return nil, nil, err
	}
	v := view.MaterializeCtx(ctx, doc, pm)
	res, err := Apply(ctx, doc, Reader{User: user, Doc: v.Doc, Decide: PermsDecider(pm)}, op, extra)
	if err != nil {
		return nil, nil, err
	}
	return res, v, nil
}

// Check reports whether user may submit op to the secured executor at
// all: the user must be declared in h and op must be a valid operation
// that needs no sequence context (xupdate:variable bindings are threaded
// by Session.Apply, not executed).
func Check(h *subject.Hierarchy, user string, op *xupdate.Op) error {
	if !h.Exists(user) {
		return fmt.Errorf("%w: %q", ErrUnknownUser, user)
	}
	if err := op.Validate(); err != nil {
		return err
	}
	if op.Kind == xupdate.Variable {
		return fmt.Errorf("access: variable bindings need a sequence context (Session.Apply)")
	}
	return nil
}

// Reader is the read side of one secured operation: the document its
// select path and value-of content are evaluated on, the filter that
// makes that document the writer's axiom 15–17 view, and the writer's
// axiom-14 decisions.
type Reader struct {
	// User is the writer; $USER binds to it.
	User string
	// Doc is the read document: the writer's materialized view (with a
	// nil Sec), or a source document with the same content as the write
	// document at the operation's start, filtered by Sec.
	Doc *xmltree.Document
	// Sec filters Doc to the writer's view; nil when Doc is the view.
	Sec *xpath.Security
	// Err, when set, reports a failure of Sec's decisions during
	// evaluation (a rule that errored is decided as hidden, which must not
	// pass silently). The executor checks it before mutating anything.
	Err func() error
	// Decide returns the writer's privileges on a node of the write
	// document. The executor calls it before the first change, so every
	// decision is as of the operation's start.
	Decide func(*xmltree.Node) (policy.Decision, error)
}

// PermsDecider returns Reader.Decide over a permission relation computed
// for the write document at the operation's start.
func PermsDecider(pm *policy.Perms) func(*xmltree.Node) (policy.Decision, error) {
	return func(n *xmltree.Node) (policy.Decision, error) { return pm.Decide(n), nil }
}

// Apply is the secured executor (axioms 18–25): $USER binds to rd.User,
// value-of content is expanded and the select path evaluated on rd.Doc
// under rd.Sec, and every selected node is changed in doc — mapped by
// identifier — if and only if the §4.4.2 privilege requirements hold.
// Every target, its parent and the children xupdate:update renames are
// decided before the first change, as a view derived at the operation's
// start would show them, so rd.Doc may be doc itself. op must have
// passed Check. Apply never modifies rd.Doc except through doc.
func Apply(ctx context.Context, doc *xmltree.Document, rd Reader, op *xupdate.Op, extra xpath.Vars) (*xupdate.Result, error) {
	vars := make(xpath.Vars, len(extra)+1)
	for k, val := range extra {
		vars[k] = val
	}
	vars["USER"] = xpath.String(rd.User)
	fail := func(err error) (*xupdate.Result, error) {
		opOutcome(op.Kind, outcomeError)
		return nil, err
	}
	run := op
	if op.HasDynamicContent() {
		expanded, err := op.ExpandContent(rd.Doc.Root(), vars, rd.Sec)
		if err != nil {
			return nil, fmt.Errorf("access: expanding dynamic content on view: %w", err)
		}
		cp := *op
		cp.Content = expanded
		run = &cp
	}
	_, selSpan := obs.StartSpanCtx(ctx, "view_select", selectStage)
	sel, err := selectOn(rd, run.Select, vars)
	selSpan.AnnotateInt("selected", int64(len(sel)))
	selSpan.End()
	if err != nil {
		return fail(fmt.Errorf("access: evaluating select path on view: %w", err))
	}
	targets, err := decide(doc, rd, run.Kind, sel)
	if err == nil && rd.Err != nil {
		err = rd.Err()
	}
	if err != nil {
		return fail(fmt.Errorf("access: deciding privileges: %w", err))
	}
	res := &xupdate.Result{Selected: len(sel)}
	_, applySpan := obs.StartSpanCtx(ctx, "secured_apply", applyStage)
	applySpan.Annotate("kind", op.Kind.MetricLabel())
	for i := range targets {
		if err := applySecured(doc, run, &targets[i], res); err != nil {
			applySpan.End()
			return fail(err)
		}
	}
	applySpan.AnnotateInt("applied", int64(res.Applied))
	applySpan.AnnotateInt("skipped", int64(len(res.Skipped)))
	applySpan.End()
	nodesApplied.Add(uint64(res.Applied))
	nodesSkipped.Add(uint64(len(res.Skipped)))
	switch {
	case res.Applied > 0:
		opOutcome(op.Kind, outcomeApplied)
	case len(res.Skipped) > 0:
		opOutcome(op.Kind, outcomeSkipped)
	default:
		opOutcome(op.Kind, outcomeNoop)
	}
	return res, nil
}

// selectOn evaluates the select path on the reader's document under its
// filter.
func selectOn(rd Reader, path string, vars xpath.Vars) (xpath.NodeSet, error) {
	c, err := xpath.Compile(path)
	if err != nil {
		return nil, err
	}
	return c.SelectFiltered(rd.Doc.Root(), vars, rd.Sec)
}

// target is one selected node with everything the §4.4.2 checks need,
// decided at the operation's start.
type target struct {
	// sel is the node as selected on the read document; skips report
	// its identifier.
	sel *xmltree.Node
	// src is the node in the write document, nil if it has none.
	src *xmltree.Node
	d   policy.Decision
	// parent is sel's parent in the view, for insert-before and
	// insert-after (axioms 23–24).
	parent *target
	// kids are sel's children in the view, for xupdate:update (axioms
	// 20–21).
	kids []target
}

// decide maps the selected nodes into doc and takes every privilege
// decision the operation kind will check.
func decide(doc *xmltree.Document, rd Reader, kind xupdate.Kind, sel xpath.NodeSet) ([]target, error) {
	one := func(n *xmltree.Node) (target, error) {
		t := target{sel: n, src: n}
		if n.Document() != doc {
			t.src = doc.NodeByID(n.ID())
		}
		if t.src == nil {
			return t, nil
		}
		var err error
		t.d, err = rd.Decide(t.src)
		return t, err
	}
	out := make([]target, len(sel))
	for i, n := range sel {
		t, err := one(n)
		if err != nil {
			return nil, err
		}
		switch kind {
		case xupdate.Update:
			for _, k := range n.Children() {
				if !rd.Sec.IsVisible(k) {
					continue
				}
				kt, err := one(k)
				if err != nil {
					return nil, err
				}
				t.kids = append(t.kids, kt)
			}
		case xupdate.InsertBefore, xupdate.InsertAfter:
			if p := n.Parent(); p != nil {
				pt, err := one(p)
				if err != nil {
					return nil, err
				}
				t.parent = &pt
			}
		}
		out[i] = t
	}
	return out, nil
}

// skip records a per-node refusal.
func skip(res *xupdate.Result, n *xmltree.Node, reason string) {
	res.Skipped = append(res.Skipped, xupdate.SkipReason{NodeID: n.ID().String(), Reason: reason})
}

// gone reports whether a decided write-document node no longer exists:
// it had none, or an earlier target of the operation removed it.
func gone(doc *xmltree.Document, n *xmltree.Node) bool {
	return n == nil || n.Document() != doc
}

// applySecured enforces the §4.4.2 requirements for one selected node and,
// if satisfied, performs the change on the write document.
func applySecured(doc *xmltree.Document, op *xupdate.Op, t *target, res *xupdate.Result) error {
	vn, src := t.sel, t.src
	if gone(doc, src) {
		// The node vanished from the source while this op ran over a
		// multi-node selection (e.g. removed with an earlier target).
		skip(res, vn, "node no longer exists in the source document")
		return nil
	}
	switch op.Kind {
	case xupdate.Rename:
		if src.Kind() == xmltree.KindDocument {
			skip(res, vn, "cannot rename the document node")
			return nil
		}
		if !t.d.Has(policy.Update) {
			skip(res, vn, "update privilege required")
			return nil
		}
		if !t.d.Has(policy.Read) {
			// The node is in the view only via position: its label shows as
			// RESTRICTED and must not be overwritten blindly.
			skip(res, vn, "node is RESTRICTED: renaming would overwrite a label the user cannot see")
			return nil
		}
		old := src.Label()
		if err := doc.Rename(src, op.NewValue); err != nil {
			return err
		}
		if old != op.NewValue {
			res.Deltas = append(res.Deltas, xupdate.Delta{Kind: xupdate.DeltaRelabel, NodeID: src.ID().String(), NewLabel: op.NewValue})
		}
		res.Applied++
	case xupdate.Update:
		// Axioms 20–21: the children of the selected node *in the view*,
		// each requiring both update and read.
		if len(t.kids) == 0 {
			skip(res, vn, "no children visible to update (xupdate:update renames the children of the selected node)")
			return nil
		}
		applied := false
		for i := range t.kids {
			k := &t.kids[i]
			sk := k.src
			if gone(doc, sk) {
				skip(res, k.sel, "child no longer exists in the source document")
				continue
			}
			if !k.d.Has(policy.Update) {
				skip(res, k.sel, "update privilege required on the child")
				continue
			}
			if !k.d.Has(policy.Read) {
				skip(res, k.sel, "read privilege required on the child (axiom 21)")
				continue
			}
			old := sk.Label()
			if err := doc.Rename(sk, op.NewValue); err != nil {
				return err
			}
			if old != op.NewValue {
				res.Deltas = append(res.Deltas, xupdate.Delta{Kind: xupdate.DeltaRelabel, NodeID: sk.ID().String(), NewLabel: op.NewValue})
			}
			applied = true
		}
		if applied {
			res.Applied++
		}
	case xupdate.Append:
		if !t.d.Has(policy.Insert) {
			skip(res, vn, "insert privilege required")
			return nil
		}
		for _, top := range op.Content.Root().Children() {
			created, err := graft(doc, src, xmltree.GraftAppend, top, res)
			if err != nil {
				return err
			}
			res.Created += created
		}
		res.Applied++
	case xupdate.InsertBefore, xupdate.InsertAfter:
		// Axioms 23–24: insert privilege on the parent of the selected node.
		if t.parent == nil || src.Parent() == nil {
			skip(res, vn, "document node has no siblings")
			return nil
		}
		if gone(doc, t.parent.src) || !t.parent.d.Has(policy.Insert) {
			skip(res, vn, "insert privilege required on the parent")
			return nil
		}
		mode := xmltree.GraftBefore
		tops := op.Content.Root().Children()
		if op.Kind == xupdate.InsertAfter {
			mode = xmltree.GraftAfter
			for i := len(tops) - 1; i >= 0; i-- {
				created, err := graft(doc, src, mode, tops[i], res)
				if err != nil {
					return err
				}
				res.Created += created
			}
		} else {
			for _, top := range tops {
				created, err := graft(doc, src, mode, top, res)
				if err != nil {
					return err
				}
				res.Created += created
			}
		}
		res.Applied++
	case xupdate.Remove:
		if !t.d.Has(policy.Delete) {
			skip(res, vn, "delete privilege required")
			return nil
		}
		// Axiom 25: the whole source subtree goes, including nodes the user
		// cannot see (confidentiality over integrity).
		sub := src.Subtree()
		ids := make([]string, len(sub))
		for i, s := range sub {
			ids[i] = s.ID().String()
		}
		res.Removed += len(sub)
		if err := doc.Remove(src); err != nil {
			return err
		}
		res.Deltas = append(res.Deltas, xupdate.Delta{Kind: xupdate.DeltaRemove, NodeID: ids[0], RemovedIDs: ids})
		res.Applied++
	default:
		return fmt.Errorf("access: unknown operation kind %d", int(op.Kind))
	}
	return nil
}

// graft grafts srcTop relative to ref, records the insert delta, and
// returns the number of nodes created.
func graft(doc *xmltree.Document, ref *xmltree.Node, mode xmltree.GraftMode, srcTop *xmltree.Node, res *xupdate.Result) (int, error) {
	top, err := doc.Graft(ref, mode, srcTop)
	if err != nil {
		return 0, err
	}
	res.Deltas = append(res.Deltas, xupdate.Delta{Kind: xupdate.DeltaInsert, NodeID: top.ID().String()})
	return len(top.Subtree()), nil
}

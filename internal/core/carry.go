package core

import (
	"context"

	"securexml/internal/access"
	"securexml/internal/obs"
	"securexml/internal/policy"
	"securexml/internal/qfilter"
	"securexml/internal/rewrite"
	"securexml/internal/xmltree"
)

// Secured writes select their targets on the writer's view (§4.4.2,
// axioms 18–25), but no served write materializes that view. The select
// path runs on the round's read document through the writer's view
// filter — the guard table the rewrite tier serves reads from — and each
// target's privileges are decided on its own in O(rules × depth), after
// Mahfoud–Imine's rewriting of updates over security views. A policy
// outside the chain-only fragment falls back to the shared-scan
// permission relation as the filter, still without a view.
//
// The read document is the base snapshot while the round has not moved
// it, so a writer's first operation reads the reader-shared, cached guard
// table; after that it is the round's scratch clone, whose filter is an
// uncached fill kept for that document version. Targets are mapped into
// the scratch clone by identifier.

var guardStage = obs.Stage("write_guard")

// guardSource says where writerReader got a writer's read side from: the
// write_guard span's source annotation.
type guardSource int

const (
	guardCarried guardSource = iota
	guardSnapshotTable
	guardScratchFill
	guardPerms
)

// label returns the annotation value; every branch is a literal so it
// stays compile-time bounded (xmlsec-vet obslabel).
func (g guardSource) label() string {
	switch g {
	case guardCarried:
		return "carried"
	case guardSnapshotTable:
		return "snapshot_table"
	case guardScratchFill:
		return "scratch_fill"
	default:
		return "perms"
	}
}

// writerState is one user's read side within a commit round, valid for
// the read document doc at version ver under policy epoch epoch.
type writerState struct {
	rd    access.Reader
	doc   *xmltree.Document
	ver   uint64
	epoch uint64
}

// readDoc returns the document the round's next secured operation selects
// on: the base snapshot until the round has changed the document, the
// scratch document after that. Both have the content the write document
// has at the operation's start.
func (c *commitCtx) readDoc() *xmltree.Document {
	if c.doc != nil && (c.docReset || c.doc.Version() != c.base.ver()) {
		return c.doc
	}
	return c.base.doc
}

// engine returns the rewrite engine for the round's policy: the
// database's shared one while the round has not changed the policy or
// the hierarchy, else one built for the round's own epoch.
func (c *commitCtx) engine() *rewrite.Engine {
	if c.epoch == c.base.epoch {
		return c.db.rewriteEngineFor(c.base)
	}
	if c.eng == nil || c.engEpoch != c.epoch {
		c.eng = rewrite.NewEngine(c.curPolicy(), c.curSubjects())
		c.engEpoch = c.epoch
	}
	return c.eng
}

// writerReader returns s's read side for the round's next secured
// operation: the read document, the filter that makes it the writer's
// view, and the per-target privilege decisions. It is reused while the
// read document and the policy stay where they were.
//
// The write_guard span records which source served, annotated with the
// writer's own coordinates only — never with counts about other users'
// views (§2.2). The writer never counts as a read tier.
func (c *commitCtx) writerReader(ctx context.Context, s *Session) (access.Reader, error) {
	ctx, sp := obs.StartSpanCtx(ctx, "write_guard", guardStage)
	defer sp.End()
	doc := c.readDoc()
	source := guardCarried
	ws := c.writers[s.user]
	if ws == nil || ws.doc != doc || ws.ver != doc.Version() || ws.epoch != c.epoch {
		rd, src, err := c.newReader(ctx, s, doc)
		if err != nil {
			return access.Reader{}, err
		}
		ws = &writerState{rd: rd, doc: doc, ver: doc.Version(), epoch: c.epoch}
		c.writers[s.user] = ws
		source = src
	}
	sp.Annotate("source", source.label())
	return ws.rd, nil
}

// newReader builds s's read side on doc. With a chain-only policy for the
// user, the filter is the user's guard table and each target is decided
// by the policy's per-node evaluator; otherwise both come from the
// shared-scan permission relation of doc.
func (c *commitCtx) newReader(ctx context.Context, s *Session, doc *xmltree.Document) (access.Reader, guardSource, error) {
	pol, h := c.curPolicy(), c.curSubjects()
	s.mu.Lock()
	ne := s.nodeEvaluatorLocked(pol, h, c.epoch)
	s.mu.Unlock()
	if ne != nil {
		if pg, _ := c.engine().ProgramFor(s.user); pg != nil {
			sec, st := pg.SecurityFor(s.user, s.vars(), doc)
			if err := st.Err(); err != nil {
				return access.Reader{}, 0, err
			}
			src := guardSnapshotTable
			if !doc.Frozen() {
				src = guardScratchFill
			}
			return access.Reader{User: s.user, Doc: doc, Sec: sec, Err: st.Err, Decide: ne.Decide}, src, nil
		}
	}
	var cache *policy.RuleCache
	if doc == c.base.doc && c.epoch == c.base.epoch {
		cache = c.base.ruleCache()
	}
	pm, err := pol.EvaluateSharedCtx(ctx, doc, h, s.user, cache)
	if err != nil {
		return access.Reader{}, 0, err
	}
	return access.Reader{User: s.user, Doc: doc, Sec: qfilter.ForPerms(pm), Decide: access.PermsDecider(pm)}, guardPerms, nil
}

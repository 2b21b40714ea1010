package core

import (
	"context"

	"securexml/internal/obs"
	"securexml/internal/policy"
	"securexml/internal/view"
	"securexml/internal/xupdate"
)

// Secured writes select their targets on the writer's view (§4.4.2,
// axioms 18–25). Deriving that view from scratch per operation costs a
// full policy evaluation and materialization, O(document). A commit round
// instead carries each writer's (permissions, view) pair across its
// requests and keeps it current with the incremental maintainer, so an
// operation costs O(delta) beyond the round's one document clone.

var carryStage = obs.Stage("view_carry")

// carrySource says where writerView got a writer's state from: the
// view_carry span's source annotation.
type carrySource int

const (
	carryCacheHit carrySource = iota
	carryIncremental
	carrySnapshotPatch
	carryRederive
)

// label returns the annotation value; every branch is a literal so it
// stays compile-time bounded (xmlsec-vet obslabel).
func (c carrySource) label() string {
	switch c {
	case carryCacheHit:
		return "cache_hit"
	case carryIncremental:
		return "incremental"
	case carrySnapshotPatch:
		return "snapshot_patch"
	default:
		return "rederive"
	}
}

// writerState is one user's carried write-side state within a commit
// round: the axiom-14 permissions and the axioms 15–17 view of the round's
// document at version ver, document generation gen and policy epoch epoch.
//
// A state seeded from the session cache starts out as that cache's
// published entry, frozen and shared with readers. It is only ever read
// until the document moves; the first patch then works on private copies
// (owned), so published entries are never mutated.
type writerState struct {
	pm    *policy.Perms
	v     *view.View
	ver   uint64
	gen   uint64
	epoch uint64
	owned bool
}

// writerView returns s's permissions and view of the round's current
// document, for the next secured operation to select on. The result is
// read-only for the caller.
//
// The state comes, cheapest first, from:
//
//   - the carried state itself, when the document has not moved since;
//   - the session cache for the round's base generation (a hit, or a patch
//     from the generation's delta log) on the user's first operation of
//     the round, before any admin change or document replacement;
//   - a patch of the carried or seeded state with the round's own delta
//     batches, which include other users' operations in the round;
//   - a re-derivation from the round's document (shared-scan evaluation
//     plus materialization) when none of the above applies: the policy is
//     not chain-only for the user, the batches have a version gap (an
//     operation failed after a partial mutation), or an admin operation
//     or document replacement earlier in the round changed what the state
//     was derived from.
//
// Seeding only reads a session cache that already holds an entry: a
// writer whose session is cold re-derives in the round, and the state
// dies with the round. Writes thus never grow the read cache — a cached
// view costs about as much memory as the document — and a writer who
// also reads gets O(delta) writes from the view its reads keep warm.
//
// The view_carry span records which source served, annotated with the
// writer's own coordinates only — never with counts about other users'
// views (§2.2).
func (c *commitCtx) writerView(ctx context.Context, s *Session) (*policy.Perms, *view.View, error) {
	ctx, sp := obs.StartSpanCtx(ctx, "view_carry", carryStage)
	defer sp.End()
	doc := c.curDoc()
	cur := doc.Version()
	ws := c.writers[s.user]
	source := carryCacheHit
	if ws == nil && c.docGen == c.base.docGen && c.epoch == c.base.epoch {
		e, src, err := s.currentEntry(ctx, c.base, true)
		if err != nil {
			return nil, nil, err
		}
		if e != nil {
			source = src
			ws = &writerState{pm: e.pm, v: e.v, ver: e.ver, gen: e.gen, epoch: e.epoch}
		}
	}
	switch {
	case ws == nil || ws.gen != c.docGen || ws.epoch != c.epoch:
		ws = nil
	case ws.ver == cur:
	case c.patch(ctx, s, ws):
		source = carrySnapshotPatch
	default:
		ws = nil
	}
	if ws == nil {
		pm, err := c.curPolicy().EvaluateSharedCtx(ctx, doc, c.curSubjects(), s.user, nil)
		if err != nil {
			return nil, nil, err
		}
		ws = &writerState{pm: pm, v: view.MaterializeCtx(ctx, doc, pm), ver: cur, gen: c.docGen, epoch: c.epoch, owned: true}
		source = carryRederive
	}
	c.writers[s.user] = ws
	sp.Annotate("source", source.label())
	return ws.pm, ws.v, nil
}

// patch brings ws from its version up to the round document's current
// version with the round's delta batches. It reports false when that is
// not possible — the policy is not chain-only for the user, the batches
// have a gap, or patching failed — and the caller re-derives; a failed
// patch may leave ws half-patched, so the caller must drop it.
func (c *commitCtx) patch(ctx context.Context, s *Session, ws *writerState) bool {
	doc := c.curDoc()
	chain, ok := chainFrom(c.batches, ws.ver, doc.Version())
	if !ok {
		return false
	}
	m := s.maintainer(c.curPolicy(), c.curSubjects(), c.epoch)
	if m == nil {
		return false
	}
	if !ws.owned {
		ws.v, ws.pm, ws.owned = ws.v.Snapshot(), ws.pm.Clone(), true
	}
	var deltas []xupdate.Delta
	for _, b := range chain {
		deltas = append(deltas, b...)
	}
	if err := m.ApplyCtx(ctx, ws.v, doc, ws.pm, deltas); err != nil {
		return false
	}
	ws.ver = doc.Version()
	return true
}

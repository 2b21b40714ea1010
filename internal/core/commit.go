package core

import (
	"context"
	"time"

	"securexml/internal/obs"
	"securexml/internal/policy"
	"securexml/internal/rewrite"
	"securexml/internal/subject"
	"securexml/internal/xmltree"
	"securexml/internal/xupdate"
)

// Telemetry: one histogram point per commit round (how many writes were
// coalesced into one published generation, and how long the round took
// end to end), plus the published sequence number and the age the
// replaced generation reached — the write-side counterpart of the
// lock-free read story.
var (
	commitBatchSize = obs.Default().Histogram("xmlsec_commit_batch_size", obs.SizeBuckets)
	commitLatency   = obs.Default().Histogram("xmlsec_commit_latency_seconds", obs.LatencyBuckets)
	generationSeq   = obs.Default().Gauge("xmlsec_generation_seq")
	generationAge   = obs.Default().Histogram("xmlsec_generation_age_seconds", obs.LatencyBuckets)

	cloneStage   = obs.Stage("commit_clone")
	publishStage = obs.Stage("commit_publish")
)

// commitReq is one write waiting in the group-commit queue.
type commitReq struct {
	// ctx is the submitter's request context: the round's publish is
	// traced into it.
	ctx context.Context
	// apply runs on the leader goroutine against the round's scratch
	// state; it communicates results to the submitter through captured
	// variables (the done close is the happens-before edge).
	apply func(c *commitCtx)
	done  chan struct{}
}

// commitCtx is the scratch state of one commit round: the base generation
// plus lazily cloned components. A request mutates the clone returned by
// mutableDoc/mutableSubjects/mutablePolicy; untouched components are
// carried over by pointer into the next generation (an admin-only round
// shares the document, a write-only round shares policy and subjects).
type commitCtx struct {
	db   *Database
	base *generation

	// doc is the scratch document clone; nil until the first mutableDoc
	// (or a LoadXML replacement). The clone cost is paid once per round
	// and amortized across every write in the batch.
	doc      *xmltree.Document
	subjects *subject.Hierarchy
	policy   *policy.Policy
	docGen   uint64
	epoch    uint64
	// adminChanged is set by a *successful* admin operation; without it
	// the round's subject/policy clones are discarded at publish.
	adminChanged bool
	// docReset marks a LoadXML replacement this round: docGen moved and
	// the delta log restarts.
	docReset bool
	// batches are the delta batches recorded by successful updates this
	// round, in order (post-replacement only, when docReset is set).
	batches []deltaBatch

	// writers carries each writing user's read side across the round's
	// requests (see carry.go); it dies with the round.
	writers map[string]*writerState
	// eng is the rewrite engine for policy epoch engEpoch, built once an
	// admin operation moved the round's epoch past the base's.
	eng      *rewrite.Engine
	engEpoch uint64
}

// mutableDoc returns the round's scratch document, cloning the base
// snapshot on first use (traced as commit_clone into ctx, the request
// that pays for it). The span carries no node count: that would reveal
// the size of the hidden part of the document (§2.2).
func (c *commitCtx) mutableDoc(ctx context.Context) *xmltree.Document {
	if c.doc == nil {
		_, sp := obs.StartSpanCtx(ctx, "commit_clone", cloneStage)
		c.doc = c.base.doc.Clone()
		sp.End()
	}
	return c.doc
}

// curDoc returns the document a request in this round must read: the
// scratch document once one exists, the base snapshot otherwise.
func (c *commitCtx) curDoc() *xmltree.Document {
	if c.doc != nil {
		return c.doc
	}
	return c.base.doc
}

// mutableSubjects returns the round's scratch hierarchy, cloning on first
// use.
func (c *commitCtx) mutableSubjects() *subject.Hierarchy {
	if c.subjects == nil {
		c.subjects = c.base.subjects.Clone()
	}
	return c.subjects
}

// mutablePolicy returns the round's scratch policy, cloning on first use.
func (c *commitCtx) mutablePolicy() *policy.Policy {
	if c.policy == nil {
		c.policy = c.base.policy.Clone()
	}
	return c.policy
}

// curSubjects returns the hierarchy a request in this round must read:
// the scratch clone if an earlier request in the round already touched
// it, the base otherwise.
func (c *commitCtx) curSubjects() *subject.Hierarchy {
	if c.subjects != nil {
		return c.subjects
	}
	return c.base.subjects
}

// curPolicy is curSubjects for the policy.
func (c *commitCtx) curPolicy() *policy.Policy {
	if c.policy != nil {
		return c.policy
	}
	return c.base.policy
}

// submit enqueues fn, on behalf of the request ctx, into the group-commit
// queue and blocks until the round containing it has been published (or
// discarded, for a round of failures). The first writer to arrive becomes
// the leader: it drains the queue in rounds, applying each round's
// requests sequentially with no lock held, publishing ONE generation per
// round, and closing every done channel after the atomic store — so a
// writer that returns always sees its own write in the next gen() load
// (read-your-writes).
func (db *Database) submit(ctx context.Context, fn func(c *commitCtx)) {
	req := &commitReq{ctx: ctx, apply: fn, done: make(chan struct{})}
	db.commitMu.Lock()
	db.queue = append(db.queue, req)
	if db.leader {
		db.commitMu.Unlock()
		<-req.done
		return
	}
	db.leader = true
	for len(db.queue) > 0 {
		round := db.queue
		db.queue = nil
		db.commitMu.Unlock()
		db.commitRound(round)
		db.commitMu.Lock()
	}
	db.leader = false
	db.commitMu.Unlock()
	// Our own request was in the first round this leader processed.
	<-req.done
}

// commitRound applies one round of queued requests against a shared
// scratch context, publishes the resulting generation, then releases the
// submitters. It runs on the leader goroutine with no lock held.
func (db *Database) commitRound(round []*commitReq) {
	start := time.Now()
	base := db.current.Load()
	c := &commitCtx{db: db, base: base, docGen: base.docGen, epoch: base.epoch, writers: make(map[string]*writerState)}
	for _, r := range round {
		r.apply(c)
	}
	// Every request of the round waits on the one publish, so each trace
	// gets its own commit_publish span; the stage histogram counts the
	// publish once.
	spans := make([]obs.Span, len(round))
	for i, r := range round {
		h := publishStage
		if i > 0 {
			h = nil
		}
		_, spans[i] = obs.StartSpanCtx(r.ctx, "commit_publish", h)
	}
	db.publish(c)
	for i := range spans {
		spans[i].End()
	}
	commitBatchSize.Observe(float64(len(round)))
	commitLatency.Observe(time.Since(start).Seconds())
	for _, r := range round {
		close(r.done)
	}
}

// publish builds the next generation from the round's scratch state and
// stores it. A round where nothing actually changed (every request failed
// or was a no-op) publishes nothing and discards its speculative clones.
func (db *Database) publish(c *commitCtx) {
	base := c.base
	docMoved := c.doc != nil && (c.docReset || c.doc.Version() != base.ver())
	if !docMoved && !c.adminChanged {
		return
	}
	next := &generation{
		seq:      base.seq + 1,
		doc:      base.doc,
		subjects: base.subjects,
		policy:   base.policy,
		docGen:   c.docGen,
		epoch:    c.epoch,
		born:     time.Now(),
		log:      base.log,
	}
	if c.adminChanged {
		if c.subjects != nil {
			next.subjects = c.subjects
		}
		if c.policy != nil {
			next.policy = c.policy
		}
	}
	if docMoved {
		next.doc = c.doc
		next.doc.Freeze()
		if c.docReset {
			next.log = nil
		}
		next.log = appendTrimmed(next.log, mergeRoundBatches(c.batches))
	}
	generationSeq.Set(int64(next.seq))
	generationAge.Observe(time.Since(base.born).Seconds())
	db.current.Store(next)
}

// mergeRoundBatches collapses the round's batches into one coalesced
// batch per contiguous version run. Version gaps between batches (a
// failed executor moved the version without recording deltas) are
// preserved as gaps, so deltaChain still refuses to patch across them.
func mergeRoundBatches(batches []deltaBatch) []deltaBatch {
	if len(batches) == 0 {
		return nil
	}
	var out []deltaBatch
	runFrom, runTo := batches[0].fromVer, batches[0].toVer
	var run []xupdate.Delta
	run = append(run, batches[0].deltas...)
	flush := func() {
		out = append(out, deltaBatch{fromVer: runFrom, toVer: runTo, deltas: xupdate.Coalesce(run)})
	}
	for _, b := range batches[1:] {
		if b.fromVer != runTo {
			flush()
			runFrom, run = b.fromVer, nil
		}
		runTo = b.toVer
		run = append(run, b.deltas...)
	}
	flush()
	return out
}

// appendTrimmed appends the round's merged batches to the shared-backing
// log and trims to deltaLogCap by reslicing (never by copying down —
// published generations keep indexing the same backing slots).
func appendTrimmed(log []deltaBatch, batches []deltaBatch) []deltaBatch {
	log = append(log, batches...)
	if len(log) > deltaLogCap {
		log = log[len(log)-deltaLogCap:]
	}
	return log
}

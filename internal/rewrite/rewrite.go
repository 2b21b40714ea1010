// Package rewrite implements static read enforcement: it turns the policy
// itself into an executable guard so a user's query runs directly on the
// *source* document — no axiom-14 per-node permission mask, no
// materialized axiom-15–17 view — yet returns exactly the answer the same
// query would produce over that user's view, RESTRICTED substitution and
// hereditary hiding included. This is the approach of Cheney's "Static
// Enforceability of XPath-Based Access Control Policies" and
// Mahfoud–Imine's "A General Approach for Securely Querying and Updating
// XML Data" adapted to the paper's priority-merge semantics (axiom 14).
//
// The supported fragment is the chain-only xpath.NodeMatcher fragment of
// the user's applicable read and position rules: each such rule decides a
// node's membership from the node's root-to-node chain alone, so the
// axiom-14 latest-priority merge for {read, position} can be decided
// top-down, each node from its parent's automaton state. One walk of the
// profile's rule bank fills a per-(user, snapshot) guard table holding
// just those two bits per node (see SecurityFor); the full permission
// relation never exists as data. Rules for the write privileges
// (insert, update, delete) are irrelevant to reads and never disqualify a
// profile; this is deliberately weaker than the incremental-maintenance
// gate (view.NewMaintainer), which needs *all* applicable rules chain-only.
//
// On top of the guarded evaluation, two genuinely static rewrites are
// decided per (profile, query) with the policy analyzer's word automata
// over xpath.Pattern abstractions (intersection/complement searches):
//
//   - PlanEmpty: the query's pattern shares no root-to-node word with any
//     applicable accept read/position rule and cannot select the document
//     node, so no node the query could ever select is visible — the
//     rewritten query is the empty query. Sound for inexact patterns,
//     because both sides only over-approximate.
//   - PlanTransparent: every possible node's latest-priority read decision
//     is an accept (checked over the pattern alphabet, requiring every
//     applicable read rule to be Exact), so the filter is the identity and
//     the rewritten query is the raw query.
//
// Everything else runs as PlanGuarded. Queries or rules outside the
// fragment, and evaluations that fail at runtime, fall back to the
// qfilter/view paths with per-reason counters (xmlsec_rewrite_fallback_total);
// the fallback is sound because the lower tiers are themselves
// answer-equivalent to the view (internal/qfilter's property tests).
//
// Programs are shared per rule *profile* — the set of applicable read and
// position rules — not per user: $USER stays a runtime variable, so every
// patient shares one program and one plan cache. Engines are built per
// policy epoch (internal/core keys them so), which makes every cache here
// document-independent: a rewritten query survives arbitrary document
// mutations, unlike any per-user view or permission mask.
package rewrite

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"securexml/internal/obs"
	"securexml/internal/policy"
	"securexml/internal/policyanalysis"
	"securexml/internal/subject"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
)

// Reason says why a query could not be served by the rewrite tier.
type Reason int

// Fallback reasons. ReasonNone means the query was (or could be) served.
const (
	ReasonNone Reason = iota
	// ReasonRuleFragment: some applicable read/position rule is outside
	// the chain-only NodeMatcher fragment, so per-node re-derivation of
	// the axiom-14 merge is unsound for this profile.
	ReasonRuleFragment
	// ReasonEvalError: a rule matcher or the guarded evaluation itself
	// failed at runtime; the authoritative paths decide the outcome.
	ReasonEvalError
	// ReasonNodeSetValue: a value query produced a non-empty node-set.
	// Handing out raw source nodes would leak hidden labels, so node-set
	// values must come from the materialized view.
	ReasonNodeSetValue
	numReasons
)

// String names the reason.
func (r Reason) String() string { return r.MetricLabel() }

// MetricLabel returns the reason's telemetry label. Every branch returns a
// literal so labels stay compile-time bounded (xmlsec-vet obslabel).
func (r Reason) MetricLabel() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonRuleFragment:
		return "rule_fragment"
	case ReasonEvalError:
		return "eval_error"
	case ReasonNodeSetValue:
		return "nodeset_value"
	default:
		return "unknown"
	}
}

// Telemetry: fallbacks by reason, resolved once.
var fallbackCounters = func() (c [numReasons]*obs.Counter) {
	for r := ReasonNone + 1; r < numReasons; r++ {
		c[r] = obs.Default().Counter("xmlsec_rewrite_fallback_total", "reason", r.MetricLabel())
	}
	return
}()

// CountFallback records one rewrite-tier fallback by reason.
func CountFallback(r Reason) {
	if r > ReasonNone && r < numReasons {
		fallbackCounters[r].Inc()
	}
}

// ruleInfo is the rewriter's compiled form of one read/position rule.
type ruleInfo struct {
	subject  string
	priv     policy.Privilege
	effect   policy.Effect
	priority int64
	usesUser bool
	text     string
	matcher  *xpath.NodeMatcher // nil: outside the chain-only fragment
	pattern  *xpath.Pattern
}

// Engine holds the rewriter's state for one (policy, hierarchy) epoch:
// the compiled read/position rules plus the per-profile program cache.
// Safe for concurrent use; internal/core replaces the whole engine when
// the policy epoch moves, so nothing here ever needs invalidation.
type Engine struct {
	h     *subject.Hierarchy
	rules []ruleInfo // ascending priority (policy.Rules order)

	mu       sync.Mutex
	programs map[string]*Program // by profile key (applicable rule indices)
	users    map[string]*Program // login -> program; nil = fragment fallback
}

// NewEngine compiles the policy's read and position rules for rewriting.
// Rules carrying write privileges are ignored: they cannot influence any
// answer under axioms 15–17.
func NewEngine(p *policy.Policy, h *subject.Hierarchy) *Engine {
	e := &Engine{
		h:        h,
		programs: make(map[string]*Program),
		users:    make(map[string]*Program),
	}
	for _, r := range p.Rules() {
		if r.Privilege != policy.Read && r.Privilege != policy.Position {
			continue
		}
		ri := ruleInfo{
			subject:  r.Subject,
			priv:     r.Privilege,
			effect:   r.Effect,
			priority: r.Priority,
			text:     r.String(),
		}
		// Paths were compiled by policy.Add, so this cannot fail for a
		// well-formed policy; a failure just makes the rule non-chain,
		// which falls back safely.
		if c, err := xpath.Compile(r.Path); err == nil {
			ri.matcher, _ = c.NodeMatcher()
			ri.pattern = c.Pattern()
			ri.usesUser = c.UsesVariable("USER")
		}
		e.rules = append(e.rules, ri)
	}
	return e
}

// ProgramFor returns the shared program for the user's rule profile, or a
// fallback reason when some applicable read/position rule is outside the
// chain-only fragment. Programs are cached per profile, so all users with
// the same applicable rules (e.g. every patient — $USER stays a variable)
// share one program and one plan cache.
func (e *Engine) ProgramFor(user string) (*Program, Reason) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if pg, ok := e.users[user]; ok {
		if pg == nil {
			return nil, ReasonRuleFragment
		}
		return pg, ReasonNone
	}
	var idx []int
	for i := range e.rules {
		if e.h.ISA(user, e.rules[i].subject) {
			idx = append(idx, i)
		}
	}
	var b strings.Builder
	for _, i := range idx {
		b.WriteString(strconv.Itoa(i))
		b.WriteByte(',')
	}
	key := b.String()
	pg, ok := e.programs[key]
	if !ok {
		pg = buildProgram(e.rules, idx)
		e.programs[key] = pg
	}
	e.users[user] = pg
	if pg == nil {
		return nil, ReasonRuleFragment
	}
	return pg, ReasonNone
}

// Program is the compiled read-enforcement program of one rule profile:
// the applicable read/position rules in ascending priority, their pattern
// abstractions for static classification, and the per-query plan cache.
type Program struct {
	rules       []ruleInfo
	bank        *xpath.Bank      // the rules' matchers, indexed like rules
	acceptPats  []*xpath.Pattern // patterns of the accept rules (visibility over-approximation)
	transparent bool

	mu    sync.Mutex
	plans map[string]*Plan

	// Guard tables for the newest frozen snapshot the program has served,
	// one per user; see SecurityFor.
	tabMu  sync.Mutex
	tabSeq uint64                 // that snapshot's xmltree FreezeSeq
	tabs   map[string]*guardTable // by user
}

// buildProgram compiles the profile selected by idx, or returns nil when
// any applicable rule lacks a chain-only matcher.
func buildProgram(rules []ruleInfo, idx []int) *Program {
	pg := &Program{plans: make(map[string]*Plan)}
	for _, i := range idx {
		if rules[i].matcher == nil {
			return nil
		}
		pg.rules = append(pg.rules, rules[i])
	}
	ms := make([]*xpath.NodeMatcher, len(pg.rules))
	for i := range pg.rules {
		ms[i] = pg.rules[i].matcher
		if pg.rules[i].effect == policy.Accept {
			pg.acceptPats = append(pg.acceptPats, pg.rules[i].pattern)
		}
	}
	pg.bank = xpath.NewBank(ms)
	pg.transparent = pg.checkTransparent()
	return pg
}

// Rules returns the profile's applicable read/position rules rendered in
// the paper's notation, for diagnostics and tests.
func (pg *Program) Rules() []string {
	out := make([]string, len(pg.rules))
	for i := range pg.rules {
		out[i] = pg.rules[i].text
	}
	return out
}

// Transparent reports whether the profile reads every node of every
// document (so rewriting is the identity).
func (pg *Program) Transparent() bool { return pg.transparent }

// checkTransparent decides profile transparency: no root-to-node word
// exists whose latest-priority read decision is missing or a deny. The
// document node is exempt (axiom 15: the root is always visible, and its
// string-value is covered because all text words must still be readable).
// Soundness needs every applicable read pattern to be Exact — an inexact
// accept pattern over-approximates the rule's true grant.
func (pg *Program) checkTransparent() bool {
	var reads []ruleInfo
	for _, ri := range pg.rules {
		if ri.priv == policy.Read {
			reads = append(reads, ri)
		}
	}
	if len(reads) == 0 {
		return false
	}
	for _, ri := range reads {
		if !ri.pattern.Exact {
			return false
		}
	}
	pats := []*xpath.Pattern{policyanalysis.RootOnlyPattern()}
	for _, ri := range reads {
		pats = append(pats, ri.pattern)
	}
	return !policyanalysis.MatchableWord(pats, func(match []bool) bool {
		if match[0] {
			return false // the document node itself
		}
		last := -1 // reads is in ascending priority, so the last match wins
		for i := range reads {
			if match[i+1] {
				last = i
			}
		}
		return last < 0 || reads[last].effect == policy.Deny
	})
}

// PlanMode classifies a rewritten query.
type PlanMode int

// Plan modes.
const (
	// PlanGuarded evaluates the query on the source document under the
	// chain-derived security filter (the general rewrite).
	PlanGuarded PlanMode = iota
	// PlanTransparent evaluates the raw query: the profile reads
	// everything, so the filter is the identity.
	PlanTransparent
	// PlanEmpty returns the statically empty answer: nothing the query
	// could select is visible to the profile.
	PlanEmpty
)

// String names the mode.
func (m PlanMode) String() string {
	switch m {
	case PlanGuarded:
		return "guarded"
	case PlanTransparent:
		return "transparent"
	case PlanEmpty:
		return "empty"
	default:
		return "unknown"
	}
}

// Plan is one rewritten query: the compiled expression plus its static
// classification for this profile. Plans are cached per (profile, query
// text) and are document-independent.
type Plan struct {
	Mode PlanMode
	c    *xpath.Compiled
}

// maxPlans bounds a profile's plan cache; on overflow the cache resets
// (queries re-plan, nothing breaks).
const maxPlans = 4096

// PlanFor compiles and classifies query for this profile, serving from the
// plan cache when possible. A compile error is the caller's to report — it
// is tier-independent (every tier would fail the same way).
func (pg *Program) PlanFor(query string) (*Plan, error) {
	pg.mu.Lock()
	if pl, ok := pg.plans[query]; ok {
		pg.mu.Unlock()
		return pl, nil
	}
	pg.mu.Unlock()
	c, err := xpath.Compile(query)
	if err != nil {
		return nil, err
	}
	pl := &Plan{Mode: PlanGuarded, c: c}
	if pg.transparent {
		pl.Mode = PlanTransparent
	} else if pg.provablyEmpty(c.Pattern()) {
		pl.Mode = PlanEmpty
	}
	pg.mu.Lock()
	if len(pg.plans) >= maxPlans {
		pg.plans = make(map[string]*Plan)
	}
	pg.plans[query] = pl
	pg.mu.Unlock()
	return pl, nil
}

// provablyEmpty reports whether no node the query could select is visible:
// the query pattern cannot match the document node and shares no word with
// any applicable accept rule's pattern. Both patterns over-approximate, so
// an empty intersection is conclusive regardless of exactness. A pattern
// that can prove emptiness only arises from path/union expressions, which
// always evaluate to node-sets — so an empty plan is always a node-set.
func (pg *Program) provablyEmpty(qp *xpath.Pattern) bool {
	if qp.MatchesRoot() {
		return false
	}
	if len(pg.acceptPats) == 0 {
		return true
	}
	pats := append([]*xpath.Pattern{qp}, pg.acceptPats...)
	return !policyanalysis.MatchableWord(pats, func(match []bool) bool {
		if !match[0] {
			return false
		}
		for _, m := range match[1:] {
			if m {
				return true
			}
		}
		return false
	})
}

// Select evaluates the plan as a node-set query over root (the source
// document node) under sec. Pass the Security from Program.SecurityFor for
// guarded plans and nil for transparent ones.
func (pl *Plan) Select(root *xmltree.Node, vars xpath.Vars, sec *xpath.Security) (xpath.NodeSet, error) {
	return pl.c.SelectFiltered(root, vars, sec)
}

// Eval evaluates the plan as an arbitrary expression over root under sec.
func (pl *Plan) Eval(root *xmltree.Node, vars xpath.Vars, sec *xpath.Security) (xpath.Value, error) {
	return pl.c.EvalFiltered(root, vars, sec)
}

// EvalState carries the runtime outcome of one guarded evaluation: if the
// guard table fill or any rule matcher failed, the evaluation's answer is
// unusable and the caller must fall back (ReasonEvalError).
type EvalState struct{ err error }

// Err returns the first matcher error, if any.
func (st *EvalState) Err() error { return st.err }

// Visibility mask bits: position admits a node into the view with the
// RESTRICTED label (axiom 17), read with its own label (axiom 16). A guard
// table entry also carries maskFilled, which tells a decided node from one
// the fill never reached.
const (
	maskPosition = 1 << 0
	maskRead     = 1 << 1
	maskFilled   = 1 << 2
)

// foldMask runs the axiom-14 latest-priority merge for {read, position}
// over the indices of the rules selecting one node, given in ascending
// order, and folds the two surviving decisions into a visibility mask.
func (pg *Program) foldMask(hits []int) uint8 {
	var posSet, readSet bool
	var posEff, readEff policy.Effect
	// Ascending priority: a later match overwrites, so the survivor is
	// the latest-priority decision (axiom 14).
	for _, i := range hits {
		ri := &pg.rules[i]
		if ri.priv == policy.Read {
			readSet, readEff = true, ri.effect
		} else {
			posSet, posEff = true, ri.effect
		}
	}
	var m uint8
	if posSet && posEff == policy.Accept {
		m |= maskPosition
	}
	if readSet && readEff == policy.Accept {
		m |= maskRead
	}
	return m
}

// ruleMask decides one node on its own: every rule's matcher re-walks the
// node's root-to-node chain. It is the per-node reference the guard tables
// are tested against, and the fallback for nodes a table does not cover.
func (pg *Program) ruleMask(n *xmltree.Node, vars xpath.Vars) (uint8, error) {
	var buf [16]int
	hits := buf[:0]
	for i := range pg.rules {
		ri := &pg.rules[i]
		ok, err := ri.matcher.Match(n, vars)
		if err != nil {
			return 0, fmt.Errorf("rewrite: %s: %w", ri.text, err)
		}
		if ok {
			hits = append(hits, i)
		}
	}
	return pg.foldMask(hits), nil
}

// guardTable holds one user's visibility masks for one snapshot, indexed
// by xmltree ordinal. It holds no node or document pointer, so a cached
// table never keeps a superseded generation alive.
type guardTable struct {
	once sync.Once
	mask []uint8 // maskFilled|mask per ordinal; 0 = not reached by the fill
	err  error
}

// fill decides every node of snap the guard evaluation can reach in one
// top-down walk of the program's rule bank: each node's NFA states come
// from its parent's, so no chain is re-walked and no rule is re-compiled.
// The walk stops below every node with mask 0 — hereditary hiding
// (axioms 15–17) means the evaluator never enters such a subtree — and
// below a visible node whose rules are all dead it still decides the
// children (as hidden), since the evaluator tests each child's visibility.
func (pg *Program) fill(snap *xmltree.Document, vars xpath.Vars) ([]uint8, error) {
	tab := make([]uint8, snap.OrdBound())
	err := pg.bank.Visit(snap, vars, func(n *xmltree.Node, hits []int, _ bool) bool {
		m := pg.foldMask(hits)
		tab[n.Ord()] = m | maskFilled
		return m != 0 || n.Kind() == xmltree.KindDocument
	})
	if err != nil {
		return nil, fmt.Errorf("rewrite: guard table: %w", err)
	}
	return tab, nil
}

// secCacheCap bounds the users whose tables a program keeps for its
// snapshot; when the population outgrows it the whole set is dropped
// rather than evicted piecewise (a table costs one walk to rebuild).
const secCacheCap = 4096

// table returns the user's guard table for snap, filled. The program
// caches tables for one snapshot only — the newest frozen one it has been
// asked about, by xmltree FreezeSeq — and a newer snapshot drops them all.
// The first caller for a (user, snapshot) fills the table; concurrent
// callers wait for that one fill. An unfrozen snapshot, or one older than
// the cached one (a reader still pinned to a superseded generation), gets
// a table of its own that is not cached and evicts nothing. A fill that
// errors leaves nothing cached.
func (pg *Program) table(user string, vars xpath.Vars, snap *xmltree.Document) *guardTable {
	seq := snap.FreezeSeq()
	var t *guardTable
	pg.tabMu.Lock()
	if seq != 0 && seq >= pg.tabSeq {
		if seq > pg.tabSeq || pg.tabs == nil || len(pg.tabs) >= secCacheCap {
			pg.tabSeq, pg.tabs = seq, make(map[string]*guardTable)
		}
		if t = pg.tabs[user]; t == nil {
			t = &guardTable{}
			pg.tabs[user] = t
		}
	}
	pg.tabMu.Unlock()
	if t == nil {
		t = &guardTable{}
		t.mask, t.err = pg.fill(snap, vars)
		return t
	}
	t.once.Do(func() { t.mask, t.err = pg.fill(snap, vars) })
	if t.err != nil {
		pg.tabMu.Lock()
		if pg.tabs[user] == t {
			delete(pg.tabs, user)
		}
		pg.tabMu.Unlock()
	}
	return t
}

// SecurityFor builds the chain-derived filter for guarded evaluations of
// user's queries on snap ($USER must be bound in vars): a node is visible
// with read or position (axioms 16–17) and shows its own label only with
// read; the document node is always visible with its own label (axiom
// 15). The decisions come from the user's guard table for the snapshot,
// filled by one top-down walk of the rule bank on first use and shared by
// every concurrent evaluation of the same user against the same frozen
// snapshot, so a visited node's decision costs one slice index. Programs
// are already built per policy epoch, so (Program, user, snapshot) keys
// the table completely.
//
// A node the table does not cover — below a hidden ancestor, where the
// guarded evaluator never goes, or from another document — is decided by
// ruleMask on its own, so the filter answers every node correctly.
//
// vars must carry the user's own bindings only ($USER) — tables are keyed
// by user identity, so request-specific bindings would poison them. The
// returned Security is valid while snap is unchanged (always, for a frozen
// snapshot) and safe for concurrent use; the EvalState is per-call. A
// failed fill is reported through the state and never cached.
func (pg *Program) SecurityFor(user string, vars xpath.Vars, snap *xmltree.Document) (*xpath.Security, *EvalState) {
	st := &EvalState{}
	t := pg.table(user, vars, snap)
	if t.err != nil {
		st.err = t.err
	}
	tab := t.mask
	mask := func(n *xmltree.Node) uint8 {
		if n.Document() == snap {
			if o := n.Ord(); o < len(tab) && tab[o]&maskFilled != 0 {
				return tab[o] &^ maskFilled
			}
		}
		m, err := pg.ruleMask(n, vars)
		if err != nil {
			if st.err == nil {
				st.err = err
			}
			return 0
		}
		return m
	}
	sec := &xpath.Security{
		Visible: func(n *xmltree.Node) bool {
			return n.Kind() == xmltree.KindDocument || mask(n) != 0
		},
		Label: func(n *xmltree.Node) string {
			if n.Kind() == xmltree.KindDocument || mask(n)&maskRead != 0 {
				return n.Label()
			}
			return xmltree.Restricted
		},
	}
	return sec, st
}

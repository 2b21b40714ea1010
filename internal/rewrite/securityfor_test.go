// SecurityFor guard tables: one table per (user, frozen snapshot), filled
// once by the first caller and shared, replaced when a newer snapshot
// arrives, never evicted by a reader on an older one, never cached after a
// failed fill, dropped whole when the user population outgrows the cap,
// and never holding a snapshot alive. White-box (package rewrite) so the
// tests can inspect the cached tables and poison them to prove reads come
// from them.
package rewrite

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"securexml/internal/policy"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
)

// securityForDoc is a small frozen snapshot.
func securityForDoc(t *testing.T) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString(
		"<patients><p0><service>oncology</service><diagnosis>flu</diagnosis></p0></patients>",
		xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d.Freeze()
	return d
}

// publish returns the next generation of snap: a frozen clone.
func publish(snap *xmltree.Document) *xmltree.Document {
	next := snap.Clone()
	next.Freeze()
	return next
}

func userVars(user string) xpath.Vars {
	return xpath.Vars{"USER": xpath.String(user)}
}

func findLabeled(d *xmltree.Document, label string) *xmltree.Node {
	var out *xmltree.Node
	d.Root().Walk(func(n *xmltree.Node) bool {
		if out == nil && n.Label() == label {
			out = n
		}
		return out == nil
	})
	return out
}

// cached returns the program's cached table for user and the snapshot
// sequence the cache belongs to.
func cached(pg *Program, user string) (*guardTable, uint64) {
	pg.tabMu.Lock()
	defer pg.tabMu.Unlock()
	return pg.tabs[user], pg.tabSeq
}

// serviceProgram is laporte's program: position on every node, read on
// //service — so every node is visible and only service shows its label.
func serviceProgram(t *testing.T) *Program {
	t.Helper()
	h := testHierarchy(t)
	p := singleRulePolicy(t, h, "//service")
	err := p.Add(h, policy.Rule{
		Effect: policy.Accept, Privilege: policy.Position,
		Path: "/descendant-or-self::node()", Subject: "staff", Priority: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	pg, _ := NewEngine(p, h).ProgramFor("laporte")
	if pg == nil {
		t.Fatal("chain-only profile fell back")
	}
	return pg
}

// TestSecurityForSharesTablePerUserAndSnapshot: two calls for the same
// (user, snapshot) share one cached table, and the second call reads its
// masks from that table rather than deciding again — proven by poisoning
// the table between the calls. Another user gets a table of its own.
func TestSecurityForSharesTablePerUserAndSnapshot(t *testing.T) {
	pg := serviceProgram(t)
	d := securityForDoc(t)
	svc := findLabeled(d, "service")

	sec1, st1 := pg.SecurityFor("laporte", userVars("laporte"), d)
	if !sec1.Visible(svc) {
		t.Fatal("service should be visible under the accept-read rule")
	}
	if err := st1.Err(); err != nil {
		t.Fatal(err)
	}
	tab, seq := cached(pg, "laporte")
	if tab == nil || seq != d.FreezeSeq() {
		t.Fatalf("table missing or keyed to the wrong snapshot (seq %d, want %d)", seq, d.FreezeSeq())
	}
	if tab.mask[svc.Ord()] != maskFilled|maskRead|maskPosition {
		t.Fatalf("table entry for service = %#x, want filled+read+position", tab.mask[svc.Ord()])
	}

	// Poison the shared table: if the second call consults it (as it
	// must), the node turns invisible.
	tab.mask[svc.Ord()] = maskFilled
	sec2, _ := pg.SecurityFor("laporte", userVars("laporte"), d)
	if sec2.Visible(svc) {
		t.Fatal("second call decided again: the table is not shared across calls")
	}
	if again, _ := cached(pg, "laporte"); again != tab {
		t.Fatal("second call replaced the cached table")
	}

	pg.SecurityFor("other", userVars("other"), d)
	if o, _ := cached(pg, "other"); o == nil || o == tab {
		t.Fatal("a second user must get a table of its own")
	}
}

// TestSecurityForInvalidatesOnSnapshotMove: a newer snapshot drops
// every cached table; a reader still on the older snapshot is answered
// from an uncached table and evicts nothing; an unfrozen document is
// never cached.
func TestSecurityForInvalidatesOnSnapshotMove(t *testing.T) {
	pg := serviceProgram(t)
	d1 := securityForDoc(t)
	pg.SecurityFor("laporte", userVars("laporte"), d1)
	pg.SecurityFor("other", userVars("other"), d1)
	t1, _ := cached(pg, "laporte")

	d2 := publish(d1)
	pg.SecurityFor("laporte", userVars("laporte"), d2)
	t2, seq := cached(pg, "laporte")
	if t2 == nil || t2 == t1 {
		t.Fatal("snapshot moved but the table was reused")
	}
	if seq != d2.FreezeSeq() {
		t.Fatalf("tables keyed to seq %d, want the newer snapshot's %d", seq, d2.FreezeSeq())
	}
	if o, _ := cached(pg, "other"); o != nil {
		t.Fatal("a table of the superseded snapshot survived the move")
	}

	// A reader pinned to d1 still gets d1's answer, uncached.
	sec, st := pg.SecurityFor("laporte", userVars("laporte"), d1)
	if sec.Label(findLabeled(d1, "service")) != "service" || sec.Label(findLabeled(d1, "diagnosis")) != xmltree.Restricted || st.Err() != nil {
		t.Fatal("older-snapshot reader got a wrong answer")
	}
	if now, seq := cached(pg, "laporte"); now != t2 || seq != d2.FreezeSeq() {
		t.Fatal("a reader on an older snapshot evicted the newest table")
	}

	unfrozen := d2.Clone()
	sec, _ = pg.SecurityFor("laporte", userVars("laporte"), unfrozen)
	if !sec.Visible(findLabeled(unfrozen, "service")) {
		t.Fatal("unfrozen document answered wrongly")
	}
	if now, seq := cached(pg, "laporte"); now != t2 || seq != d2.FreezeSeq() {
		t.Fatal("an unfrozen document entered the cache")
	}
}

// TestSecurityForErrorNotMemoized: a failed fill (unbound $USER) reports
// through the per-call EvalState and leaves no table behind, so a later
// correct call is not served a poisoned zero.
func TestSecurityForErrorNotMemoized(t *testing.T) {
	h := testHierarchy(t)
	p := policy.New()
	for _, r := range []policy.Rule{
		{Effect: policy.Accept, Privilege: policy.Position, Path: "/descendant-or-self::node()", Subject: "staff", Priority: 5},
		{Effect: policy.Accept, Privilege: policy.Read, Path: "/patients/*[name() = $USER]//node()", Subject: "staff", Priority: 10},
	} {
		if err := p.Add(h, r); err != nil {
			t.Fatal(err)
		}
	}
	pg, reason := NewEngine(p, h).ProgramFor("laporte")
	if pg == nil {
		t.Fatalf("profile fell back: %v", reason)
	}
	d := securityForDoc(t)
	svc := findLabeled(d, "service")

	// First call binds no variables, so the fill errors; nothing may be
	// cached for p0.
	sec, st := pg.SecurityFor("p0", xpath.Vars{}, d)
	sec.Visible(svc)
	if st.Err() == nil {
		t.Fatal("unbound $USER should surface a fill error")
	}
	if tab, _ := cached(pg, "p0"); tab != nil {
		t.Fatal("a failed fill must not be cached")
	}

	// Same user, same snapshot. With $USER bound, the rule matches p0's
	// descendants, so svc is visible; a cached zero from the failed call
	// would wrongly hide it.
	sec2, st2 := pg.SecurityFor("p0", userVars("p0"), d)
	if sec2.Label(svc) != "service" {
		t.Fatal("p0 should read the contents of its own subtree")
	}
	if err := st2.Err(); err != nil {
		t.Fatal(err)
	}
	if tab, _ := cached(pg, "p0"); tab == nil || tab.mask[svc.Ord()]&maskFilled == 0 {
		t.Fatal("the successful fill was not cached")
	}
}

// TestSecurityForCacheReset: the user map never exceeds the cap; crossing
// it resets the cache instead of evicting piecewise.
func TestSecurityForCacheReset(t *testing.T) {
	pg := serviceProgram(t)
	d := securityForDoc(t)
	for i := 0; i <= secCacheCap; i++ {
		u := fmt.Sprintf("u%d", i)
		pg.SecurityFor(u, userVars(u), d)
		pg.tabMu.Lock()
		n := len(pg.tabs)
		pg.tabMu.Unlock()
		if n > secCacheCap {
			t.Fatalf("cache grew to %d entries, cap is %d", n, secCacheCap)
		}
	}
	pg.tabMu.Lock()
	n := len(pg.tabs)
	pg.tabMu.Unlock()
	if n != 1 {
		t.Fatalf("after crossing the cap the cache should hold only the newest user, got %d", n)
	}
}

// TestSecurityForPinsNoSupersededSnapshot: after several publishes, the
// program's cache holds tables for the newest snapshot only, and nothing
// reachable from the cache points at any document or node — so a
// superseded generation is garbage as soon as its readers finish.
func TestSecurityForPinsNoSupersededSnapshot(t *testing.T) {
	pg := serviceProgram(t)
	snap := securityForDoc(t)
	users := []string{"laporte", "u1", "u2"}
	for gen := 0; gen < 5; gen++ {
		for _, u := range users {
			pg.SecurityFor(u, userVars(u), snap)
		}
		if gen < 4 {
			snap = publish(snap)
		}
	}
	pg.tabMu.Lock()
	defer pg.tabMu.Unlock()
	if pg.tabSeq != snap.FreezeSeq() || len(pg.tabs) != len(users) {
		t.Fatalf("cache holds seq %d with %d tables, want the newest seq %d with %d",
			pg.tabSeq, len(pg.tabs), snap.FreezeSeq(), len(users))
	}
	docT, nodeT := reflect.TypeOf(snap), reflect.TypeOf(snap.Root())
	seen := map[uintptr]bool{}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() {
				return
			}
			if v.Type() == docT || v.Type() == nodeT {
				t.Fatalf("cache entry %s references a %s", path, v.Type())
			}
			if seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			walk(v.Elem(), path)
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem(), path)
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), path)
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Value(), path+"["+it.Key().String()+"]")
			}
		case reflect.Func, reflect.Chan:
			if !v.IsNil() {
				t.Fatalf("cache entry %s holds a %s, which could capture a snapshot", path, v.Kind())
			}
		}
	}
	walk(reflect.ValueOf(pg.tabs), "tabs")
}

// TestSecurityForConcurrent: many goroutines released at once
// first-touch one (user, snapshot), for several successive snapshots; all
// must see the per-node reference decision and end up sharing one cached
// table. Run under -race this pins the fill's once-only publication.
func TestSecurityForConcurrent(t *testing.T) {
	pg := serviceProgram(t)
	snap := securityForDoc(t)
	vars := userVars("laporte")
	for round := 0; round < 20; round++ {
		snap = publish(snap)
		start := make(chan struct{})
		errs := make(chan error, 8)
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				sec, st := pg.SecurityFor("laporte", vars, snap)
				snap.Root().Walk(func(n *xmltree.Node) bool {
					want, err := pg.ruleMask(n, vars)
					if err != nil {
						errs <- err
						return false
					}
					if n.Kind() != xmltree.KindDocument && (sec.Label(n) == n.Label()) != (want&maskRead != 0) {
						errs <- fmt.Errorf("%s: label %q, reference mask %#x", n.Path(), sec.Label(n), want)
						return false
					}
					return true
				})
				if err := st.Err(); err != nil {
					errs <- err
				}
			}()
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		tab, seq := cached(pg, "laporte")
		if tab == nil || seq != snap.FreezeSeq() {
			t.Fatalf("round %d: no shared table for the newest snapshot", round)
		}
	}
}

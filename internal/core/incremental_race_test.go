package core

import (
	"fmt"
	"sync"
	"testing"

	"securexml/internal/policy"
	"securexml/internal/xmltree"
	"securexml/internal/xupdate"
)

// TestIncrementalViewRaceStress hammers the incremental view-maintenance
// path under -race: every user's session is shared by two reader
// goroutines (so each read after a write patches the shared cached view
// in place), while writers stream single-node updates, structural grafts
// and removals, and an administrator occasionally flips the policy epoch
// to force full rebuilds and maintainer recompiles. After the storm, each
// shared session's patched view must serialize identically to the view of
// a fresh session for the same user.
func TestIncrementalViewRaceStress(t *testing.T) {
	db := hospital(t)
	const iters = 30
	var wg sync.WaitGroup
	errs := make(chan error, 256)
	fail := func(err error) {
		if err != nil {
			errs <- err
		}
	}

	users := []string{"beaufort", "laporte", "richard", "robert", "franck"}
	shared := make(map[string]*Session, len(users))
	for _, u := range users {
		shared[u] = session(t, db, u)
	}

	// Readers: two goroutines per shared session.
	for _, u := range users {
		s := shared[u]
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					if _, err := s.Query("//service"); err != nil {
						fail(err)
						return
					}
					if _, err := s.ViewXML(); err != nil {
						fail(err)
						return
					}
					if _, err := s.QueryValue("count(//diagnosis)"); err != nil {
						fail(err)
						return
					}
				}
			}()
		}
	}

	// Writer 1: the doctor rewrites diagnosis texts (single-node deltas,
	// the incremental sweet spot) and occasionally deletes them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		s, err := db.Session("laporte")
		if err != nil {
			fail(err)
			return
		}
		for i := 0; i < iters; i++ {
			if _, err := s.Update(&xupdate.Op{Kind: xupdate.Update, Select: "//diagnosis", NewValue: fmt.Sprintf("dx%d", i)}); err != nil {
				fail(err)
				return
			}
			if i%7 == 6 {
				if _, err := s.Update(&xupdate.Op{Kind: xupdate.Remove, Select: "//diagnosis/node()"}); err != nil {
					fail(err)
					return
				}
			}
		}
	}()

	// Writer 2: the secretary grafts new patients (insert deltas).
	wg.Add(1)
	go func() {
		defer wg.Done()
		s, err := db.Session("beaufort")
		if err != nil {
			fail(err)
			return
		}
		for i := 0; i < iters; i++ {
			frag, err := xmltree.ParseString(fmt.Sprintf("<p%d><service>s%d</service></p%d>", i, i, i), xmltree.ParseOptions{Fragment: true})
			if err != nil {
				fail(err)
				return
			}
			if _, err := s.Update(&xupdate.Op{Kind: xupdate.Append, Select: "/patients", Content: frag}); err != nil {
				fail(err)
				return
			}
		}
	}()

	// Writer 3: the doctor again, through the session the readers share,
	// with two-operation documents: each round seeds its carried view from
	// the cache entry the readers are serving, and the second operation
	// patches a private copy of it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := shared["laporte"].Apply(fmt.Sprintf(`<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
				<xupdate:append select="/patients/franck/diagnosis"><note>n%d</note></xupdate:append>
				<xupdate:update select="/patients/franck/diagnosis/note">c%d</xupdate:update>
			</xupdate:modifications>`, i, i)); err != nil {
				fail(err)
				return
			}
		}
	}()

	// Administrator: periodic policy churn forces epoch misses between
	// incremental applies, exercising the rebuild/recompile transition.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/3; i++ {
			if err := db.Grant(policy.Read, "//service", "staff"); err != nil {
				fail(err)
				return
			}
			if err := db.Revoke(policy.Read, "//note", "secretary"); err != nil {
				fail(err)
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiescent check: every shared session's (incrementally patched)
	// view must match a fresh session's from-scratch materialization.
	for _, u := range users {
		got, err := shared[u].ViewXML()
		if err != nil {
			t.Fatal(err)
		}
		want, err := session(t, db, u).ViewXML()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("user %s: patched view diverged from fresh view\npatched:\n%s\nfresh:\n%s", u, got, want)
		}
	}
}

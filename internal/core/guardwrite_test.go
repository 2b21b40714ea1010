package core

import (
	"fmt"
	"strings"
	"testing"

	"securexml/internal/policy"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
)

// Confidentiality of the guarded write path: what a secured write reads —
// value-of copies, variable bindings, refusals — must be what the writer's
// materialized view would give, with nothing from outside it.

// TestGuardedCopiesTakeOnlyTheView has the secretary copy diagnosis
// content (position only: RESTRICTED) and whole patient subtrees whose
// service content she may not see at all, through value-of directly and
// through a variable. The copies must hold RESTRICTED where the view does
// and no hidden node, and every outcome must match the reference.
func TestGuardedCopiesTakeOnlyTheView(t *testing.T) {
	db := hospital(t)
	if err := db.Revoke(policy.Read, "//service/node()", "secretary"); err != nil {
		t.Fatal(err)
	}
	m := newRefMirror(db)
	const wrap = `<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">%s</xupdate:modifications>`
	for i, mods := range []string{
		`<xupdate:append select="/patients"><c1><xupdate:value-of select="//diagnosis/node()"/></c1></xupdate:append>`,
		`<xupdate:variable name="d" select="//diagnosis/node()"/>` +
			`<xupdate:append select="/patients"><c2><xupdate:value-of select="$d"/></c2></xupdate:append>`,
		`<xupdate:append select="/patients"><c3><xupdate:value-of select="/patients/franck | /patients/robert"/></c3></xupdate:append>`,
		`<xupdate:variable name="p" select="/patients/*[service]"/>` +
			`<xupdate:append select="/patients"><c4><xupdate:value-of select="$p"/></c4></xupdate:append>`,
		`<xupdate:append select="/patients"><c5><xupdate:value-of select="string(/patients/franck)"/></c5></xupdate:append>`,
	} {
		r := &writeReq{user: "beaufort", mods: fmt.Sprintf(wrap, mods)}
		r.run(db)
		checkReq(t, fmt.Sprintf("copy %d", i), r, m)
	}
	checkState(t, "copies", db, m)

	src := db.gen().doc
	for i := 1; i <= 5; i++ {
		ns, err := xpath.Select(src, fmt.Sprintf("/patients/c%d", i), nil)
		if err != nil || len(ns) != 1 {
			t.Fatalf("copy c%d: %d nodes, %v", i, len(ns), err)
		}
		for _, n := range ns[0].Subtree() {
			switch l := n.Label(); {
			case strings.Contains(l, "tonsillitis"), strings.Contains(l, "pneumonia"):
				t.Errorf("copy c%d carries the hidden diagnosis %q", i, l)
			case strings.Contains(l, "otolaryngology"), strings.Contains(l, "pneumology"):
				t.Errorf("copy c%d carries the hidden service %q", i, l)
			}
		}
	}
	for _, i := range []int{1, 2} {
		ns, _ := xpath.Select(src, fmt.Sprintf("/patients/c%d/text()", i), nil)
		if len(ns) != 2 {
			t.Fatalf("copy c%d: %d text nodes, want the 2 diagnoses", i, len(ns))
		}
		for _, n := range ns {
			if n.Label() != xmltree.Restricted {
				t.Errorf("copy c%d: text %q, want %s", i, n.Label(), xmltree.Restricted)
			}
		}
	}
}

// TestGuardedRefusalsMatchReference drives writes that the §4.4.2 checks
// refuse for every reason — no update privilege, a RESTRICTED target, no
// visible child, a child without read, no insert on the node or its
// parent, no delete, a vanished node — by every user of the paper
// scenario, and compares each result, skip reasons included, with the
// reference executor.
func TestGuardedRefusalsMatchReference(t *testing.T) {
	db := hospital(t)
	// The secretary may update the diagnosis content she sees only as
	// RESTRICTED; doctors may delete whole diagnoses.
	if err := db.Grant(policy.Update, "//diagnosis/node()", "secretary"); err != nil {
		t.Fatal(err)
	}
	if err := db.Grant(policy.Delete, "//diagnosis", "doctor"); err != nil {
		t.Fatal(err)
	}
	m := newRefMirror(db)
	const wrap = `<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">%s</xupdate:modifications>`
	ops := []string{
		`<xupdate:rename select="//diagnosis/node()">x</xupdate:rename>`,
		`<xupdate:rename select="/patients/*">renamed</xupdate:rename>`,
		`<xupdate:update select="//diagnosis">x</xupdate:update>`,
		`<xupdate:update select="/patients/*/service | //diagnosis/node()">x</xupdate:update>`,
		`<xupdate:append select="//service | /patients"><w/></xupdate:append>`,
		`<xupdate:insert-before select="//service | /patients"><w/></xupdate:insert-before>`,
		`<xupdate:insert-after select="/patients/* | //diagnosis/node()"><w/></xupdate:insert-after>`,
		`<xupdate:remove select="//diagnosis | //diagnosis/node()"/>`,
		`<xupdate:remove select="/patients/*"/>`,
	}
	reasons := map[string]bool{}
	for _, u := range []string{"beaufort", "laporte", "richard", "robert", "franck"} {
		for i, op := range ops {
			r := &writeReq{user: u, mods: fmt.Sprintf(wrap, op)}
			r.run(db)
			checkReq(t, fmt.Sprintf("%s op %d", u, i), r, m)
			for _, res := range r.results {
				for _, sk := range res.Skipped {
					reasons[sk.Reason] = true
				}
			}
		}
	}
	checkState(t, "refusals", db, m)
	for _, want := range []string{
		"update privilege required",
		"node is RESTRICTED: renaming would overwrite a label the user cannot see",
		"no children visible to update (xupdate:update renames the children of the selected node)",
		"update privilege required on the child",
		"read privilege required on the child (axiom 21)",
		"insert privilege required",
		"insert privilege required on the parent",
		"delete privilege required",
		"node no longer exists in the source document",
	} {
		if !reasons[want] {
			t.Errorf("no write was refused with %q; got %v", want, reasons)
		}
	}
}

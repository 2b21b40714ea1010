package access

import (
	"context"
	"reflect"
	"testing"

	"securexml/internal/policy"
	"securexml/internal/rewrite"
	"securexml/internal/subject"
	"securexml/internal/view"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
	"securexml/internal/xupdate"
)

const medXML = `<patients><franck><service>otolaryngology</service><diagnosis>tonsillitis</diagnosis></franck><robert><service>pneumology</service><diagnosis>pneumonia</diagnosis></robert></patients>`

// paperEnv builds the Fig. 2 document, Fig. 3 hierarchy and axiom-13 policy.
func paperEnv(t *testing.T) (*xmltree.Document, *subject.Hierarchy, *policy.Policy) {
	t.Helper()
	d, err := xmltree.ParseString(medXML, xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := subject.PaperHierarchy()
	p, err := policy.PaperPolicy(h)
	if err != nil {
		t.Fatal(err)
	}
	return d, h, p
}

func text(t *testing.T, d *xmltree.Document, path string) string {
	t.Helper()
	ns, err := xpath.Select(d, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) == 0 {
		return ""
	}
	return ns[0].StringValue()
}

func countNodes(t *testing.T, d *xmltree.Document, path string) int {
	t.Helper()
	ns, err := xpath.Select(d, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	return len(ns)
}

func fragment(t *testing.T, src string) *xmltree.Document {
	t.Helper()
	f, err := xmltree.ParseString(src, xmltree.ParseOptions{Fragment: true})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestUnknownUserRejected(t *testing.T) {
	d, h, p := paperEnv(t)
	_, _, err := Execute(d, h, p, "mallory", &xupdate.Op{Kind: xupdate.Remove, Select: "//diagnosis"})
	if err == nil {
		t.Fatal("unknown user accepted")
	}
}

func TestInvalidOpRejected(t *testing.T) {
	d, h, p := paperEnv(t)
	if _, _, err := Execute(d, h, p, "laporte", &xupdate.Op{Kind: xupdate.Remove, Select: "//["}); err == nil {
		t.Fatal("invalid op accepted")
	}
}

// TestDoctorUpdatesDiagnosis: rule 11 — doctors update diagnosis content via
// xupdate:update (the update privilege sits on the diagnosis text child).
func TestDoctorUpdatesDiagnosis(t *testing.T) {
	d, h, p := paperEnv(t)
	res, _, err := Execute(d, h, p, "laporte",
		&xupdate.Op{Kind: xupdate.Update, Select: "/patients/franck/diagnosis", NewValue: "pharyngitis"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 {
		t.Errorf("applied = %d: %+v", res.Applied, res)
	}
	if got := text(t, d, "/patients/franck/diagnosis"); got != "pharyngitis" {
		t.Errorf("diagnosis = %q", got)
	}
}

// TestSecretaryCannotUpdateDiagnosis: secretaries hold update on patient
// names (rule 9) but not on diagnosis content, and they cannot even read it
// (rule 2) — both conditions of axiom 21 fail.
func TestSecretaryCannotUpdateDiagnosis(t *testing.T) {
	d, h, p := paperEnv(t)
	res, _, err := Execute(d, h, p, "beaufort",
		&xupdate.Op{Kind: xupdate.Update, Select: "/patients/franck/diagnosis", NewValue: "flu"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 0 || len(res.Skipped) == 0 {
		t.Errorf("result = %+v, want nothing applied", res)
	}
	if got := text(t, d, "/patients/franck/diagnosis"); got != "tonsillitis" {
		t.Errorf("diagnosis changed to %q", got)
	}
}

// TestSecretaryRenamesPatient: rule 9 — update privilege on /patients/*.
func TestSecretaryRenamesPatient(t *testing.T) {
	d, h, p := paperEnv(t)
	res, _, err := Execute(d, h, p, "beaufort",
		&xupdate.Op{Kind: xupdate.Rename, Select: "/patients/franck", NewValue: "francois"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 {
		t.Fatalf("result = %+v", res)
	}
	if countNodes(t, d, "/patients/francois") != 1 {
		t.Error("rename did not reach the source")
	}
}

// TestRenameRequiresReadOnRestrictedNode: an epidemiologist granted update
// on patient names still cannot rename them, because they are RESTRICTED in
// the view (§4.4.2: RESTRICTED nodes cannot be updated).
func TestRenameRequiresReadOnRestrictedNode(t *testing.T) {
	d, h, p := paperEnv(t)
	if err := p.Grant(h, policy.Update, "/patients/*", "epidemiologist"); err != nil {
		t.Fatal(err)
	}
	// The epidemiologist sees the name as RESTRICTED and addresses it as such.
	res, v, err := Execute(d, h, p, "richard",
		&xupdate.Op{Kind: xupdate.Rename, Select: "/patients/RESTRICTED[1]", NewValue: "leaked"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected != 1 {
		t.Fatalf("selection on view failed: %+v\n%s", res, v.Doc.Sketch())
	}
	if res.Applied != 0 || len(res.Skipped) != 1 {
		t.Errorf("RESTRICTED node renamed: %+v", res)
	}
	if countNodes(t, d, "/patients/franck") != 1 {
		t.Error("source label changed")
	}
}

// TestSelectByRestrictedLabel: §4.4.2 — "PATH might include some node tests
// equal to RESTRICTED"; operations on nodes *below* a RESTRICTED node work
// when privileges allow.
func TestSelectByRestrictedLabel(t *testing.T) {
	d, h, p := paperEnv(t)
	if err := p.Grant(h, policy.Update, "//service/node()", "epidemiologist"); err != nil {
		t.Fatal(err)
	}
	res, _, err := Execute(d, h, p, "richard",
		&xupdate.Op{Kind: xupdate.Update, Select: "/patients/RESTRICTED[2]/service", NewValue: "cardiology"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 {
		t.Fatalf("result = %+v", res)
	}
	if got := text(t, d, "/patients/robert/service"); got != "cardiology" {
		t.Errorf("service = %q", got)
	}
}

// TestDoctorPosesDiagnosis: rule 10 — insert on //diagnosis via append.
func TestDoctorPosesDiagnosis(t *testing.T) {
	d, h, p := paperEnv(t)
	// Clear robert's diagnosis first (doctor holds delete on the text).
	if _, _, err := Execute(d, h, p, "laporte",
		&xupdate.Op{Kind: xupdate.Remove, Select: "/patients/robert/diagnosis/text()"}); err != nil {
		t.Fatal(err)
	}
	res, _, err := Execute(d, h, p, "laporte", &xupdate.Op{
		Kind: xupdate.Append, Select: "/patients/robert/diagnosis",
		Content: fragment(t, "bronchitis"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 || res.Created != 1 {
		t.Fatalf("result = %+v", res)
	}
	if got := text(t, d, "/patients/robert/diagnosis"); got != "bronchitis" {
		t.Errorf("diagnosis = %q", got)
	}
}

// TestSecretaryInsertsMedicalFile: rule 8 — insert on /patients.
func TestSecretaryInsertsMedicalFile(t *testing.T) {
	d, h, p := paperEnv(t)
	res, _, err := Execute(d, h, p, "beaufort", &xupdate.Op{
		Kind: xupdate.Append, Select: "/patients",
		Content: fragment(t, "<albert><service>cardiology</service><diagnosis/></albert>"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 || res.Created != 4 {
		t.Fatalf("result = %+v", res)
	}
	if countNodes(t, d, "/patients/albert") != 1 {
		t.Error("albert missing from source")
	}
}

// TestPatientCannotWriteAnything: patients hold no write privileges.
func TestPatientCannotWriteAnything(t *testing.T) {
	d, h, p := paperEnv(t)
	ops := []*xupdate.Op{
		{Kind: xupdate.Rename, Select: "/patients/robert", NewValue: "king"},
		{Kind: xupdate.Update, Select: "/patients/robert/diagnosis", NewValue: "cured"},
		{Kind: xupdate.Append, Select: "/patients/robert", Content: fragment(t, "<note/>")},
		{Kind: xupdate.InsertBefore, Select: "/patients/robert", Content: fragment(t, "<fake/>")},
		{Kind: xupdate.Remove, Select: "/patients/robert/diagnosis"},
	}
	before := d.Len()
	for _, op := range ops {
		res, _, err := Execute(d, h, p, "robert", op)
		if err != nil {
			t.Fatalf("%s: %v", op.Kind, err)
		}
		if res.Applied != 0 {
			t.Errorf("%s: applied %d, want 0", op.Kind, res.Applied)
		}
	}
	if d.Len() != before {
		t.Error("document changed despite denials")
	}
	if got := text(t, d, "/patients/robert"); got == "" {
		t.Error("robert vanished")
	}
}

// TestInsertBeforeRequiresParentPrivilege: axioms 23–24 place the insert
// privilege on the *parent* of the selected node.
func TestInsertBeforeRequiresParentPrivilege(t *testing.T) {
	d, h, p := paperEnv(t)
	// Secretary holds insert on /patients (rule 8), so inserting a sibling
	// of franck (child of /patients) is allowed.
	res, _, err := Execute(d, h, p, "beaufort", &xupdate.Op{
		Kind: xupdate.InsertBefore, Select: "/patients/franck",
		Content: fragment(t, "<aaron/>"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 {
		t.Fatalf("result = %+v", res)
	}
	kids, _ := xpath.Select(d, "/patients/*", nil)
	if kids[0].Label() != "aaron" {
		t.Error("aaron not first child")
	}
	// But inserting a sibling of a service element is not: the secretary
	// has no insert privilege on the patient element.
	res2, _, err := Execute(d, h, p, "beaufort", &xupdate.Op{
		Kind: xupdate.InsertAfter, Select: "/patients/franck/service",
		Content: fragment(t, "<allergy/>"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Applied != 0 {
		t.Errorf("insert-after applied without parent privilege: %+v", res2)
	}
}

// TestRemoveDeletesInvisibleDescendants: axiom 25 and the §4.4.2 discussion
// — a delete-privileged user removes a subtree even where parts of it are
// invisible to them (confidentiality preferred over integrity).
func TestRemoveDeletesInvisibleDescendants(t *testing.T) {
	d, h, p := paperEnv(t)
	// Give secretaries delete on patient files. Secretaries cannot read
	// diagnosis *content* (rule 2), which is position-only in their view.
	if err := p.Grant(h, policy.Delete, "/patients/*", "secretary"); err != nil {
		t.Fatal(err)
	}
	res, _, err := Execute(d, h, p, "beaufort",
		&xupdate.Op{Kind: xupdate.Remove, Select: "/patients/franck"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 {
		t.Fatalf("result = %+v", res)
	}
	// The whole 5-node subtree is gone, including the invisible text.
	if res.Removed != 5 {
		t.Errorf("removed %d nodes, want 5", res.Removed)
	}
	if countNodes(t, d, "//franck") != 0 || countNodes(t, d, "//tonsillitis") != 0 {
		t.Error("subtree not fully removed")
	}
}

// TestPartialSuccessAcrossSelection: an op addressing several nodes succeeds
// where privileges allow and reports the rest as skipped (§4.4.2).
func TestPartialSuccessAcrossSelection(t *testing.T) {
	d, h, p := paperEnv(t)
	// Doctor updates all diagnoses: both children are updatable.
	res, _, err := Execute(d, h, p, "laporte",
		&xupdate.Op{Kind: xupdate.Update, Select: "//diagnosis", NewValue: "checked"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected != 2 || res.Applied != 2 {
		t.Fatalf("doctor update result = %+v", res)
	}
	// Secretary renames everything under /patients: the two patient names
	// succeed (rule 9); selected diagnosis/service elements are skipped.
	d2, h2, p2 := paperEnv(t)
	res2, _, err := Execute(d2, h2, p2, "beaufort",
		&xupdate.Op{Kind: xupdate.Rename, Select: "/patients//*", NewValue: "X"})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Selected != 6 { // 2 names + 2 services + 2 diagnoses
		t.Fatalf("selected = %d, want 6", res2.Selected)
	}
	if res2.Applied != 2 || len(res2.Skipped) != 4 {
		t.Errorf("result = %+v, want 2 applied, 4 skipped", res2)
	}
	if countNodes(t, d2, "/patients/X") != 2 {
		t.Error("patient names not renamed")
	}
	if countNodes(t, d2, "//service") != 2 {
		t.Error("service elements renamed without privilege")
	}
}

// TestWriteSelectionIsOnView: a doctor-wide select path cannot touch nodes
// outside the user's view even when the user holds the write privilege on
// them in the source. Construct: a user with delete on everything but read
// on nothing below /patients — their view stops at /patients, so //diagnosis
// selects nothing.
func TestWriteSelectionIsOnView(t *testing.T) {
	d, _ := xmltree.ParseString(medXML, xmltree.ParseOptions{})
	h := subject.NewHierarchy()
	if err := h.AddUser("auditor"); err != nil {
		t.Fatal(err)
	}
	p := policy.New()
	if err := p.Grant(h, policy.Delete, "/descendant-or-self::node()", "auditor"); err != nil {
		t.Fatal(err)
	}
	if err := p.Grant(h, policy.Read, "/patients", "auditor"); err != nil {
		t.Fatal(err)
	}
	res, _, err := Execute(d, h, p, "auditor",
		&xupdate.Op{Kind: xupdate.Remove, Select: "//diagnosis"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected != 0 || res.Applied != 0 {
		t.Fatalf("selection escaped the view: %+v", res)
	}
	if countNodes(t, d, "//diagnosis") != 2 {
		t.Error("invisible nodes were deleted")
	}
}

// TestUpdateSkipsInvisibleChildren: axiom 20 quantifies over child_view —
// children hidden from the view are not updated even if the update
// privilege would allow it.
func TestUpdateSkipsInvisibleChildren(t *testing.T) {
	d, _ := xmltree.ParseString("<r><e><a>1</a><b>2</b></e></r>", xmltree.ParseOptions{})
	h := subject.NewHierarchy()
	if err := h.AddUser("u"); err != nil {
		t.Fatal(err)
	}
	p := policy.New()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(p.Grant(h, policy.Read, "/descendant-or-self::node()", "u"))
	must(p.Grant(h, policy.Update, "/descendant-or-self::node()", "u"))
	must(p.Revoke(h, policy.Read, "/r/e/b", "u")) // b invisible
	res, _, err := Execute(d, h, p, "u",
		&xupdate.Op{Kind: xupdate.Update, Select: "/r/e", NewValue: "z"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 {
		t.Fatalf("result = %+v", res)
	}
	if countNodes(t, d, "/r/e/z") != 1 {
		t.Error("visible child not updated")
	}
	if countNodes(t, d, "/r/e/b") != 1 {
		t.Error("invisible child was updated")
	}
}

// TestRemoveNestedSelectionOnView: removing an ancestor first must leave the
// descendant's removal as a recorded skip, not an error.
func TestRemoveNestedSelectionOnView(t *testing.T) {
	d, h, p := paperEnv(t)
	if err := p.Grant(h, policy.Delete, "/patients/* | /patients//diagnosis", "doctor"); err != nil {
		t.Fatal(err)
	}
	res, _, err := Execute(d, h, p, "laporte",
		&xupdate.Op{Kind: xupdate.Remove, Select: "/patients/franck | /patients/franck/diagnosis"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected != 2 || res.Applied != 1 || len(res.Skipped) != 1 {
		t.Errorf("result = %+v", res)
	}
}

// TestViewReturnedMatchesUser: the view handed back by Execute is the one
// the selection ran on.
func TestViewReturnedMatchesUser(t *testing.T) {
	d, h, p := paperEnv(t)
	_, v, err := Execute(d, h, p, "beaufort",
		&xupdate.Op{Kind: xupdate.Rename, Select: "/patients/franck", NewValue: "f2"})
	if err != nil {
		t.Fatal(err)
	}
	if v.User != "beaufort" {
		t.Errorf("view user = %q", v.User)
	}
	if v.Restricted != 2 {
		t.Errorf("view restricted = %d, want 2 (diagnosis texts)", v.Restricted)
	}
}

// TestInsertMultiTopFragmentsKeepOrder: multi-rooted content must land in
// fragment order for both insert-before and insert-after (axioms 23–24).
func TestInsertMultiTopFragmentsKeepOrder(t *testing.T) {
	d, h, p := paperEnv(t)
	res, _, err := Execute(d, h, p, "beaufort", &xupdate.Op{
		Kind: xupdate.InsertBefore, Select: "/patients/franck",
		Content: fragment(t, "<a1/><a2/>"),
	})
	if err != nil || res.Applied != 1 || res.Created != 2 {
		t.Fatalf("insert-before multi: %v %+v", err, res)
	}
	res, _, err = Execute(d, h, p, "beaufort", &xupdate.Op{
		Kind: xupdate.InsertAfter, Select: "/patients/franck",
		Content: fragment(t, "<z1/><z2/>"),
	})
	if err != nil || res.Applied != 1 || res.Created != 2 {
		t.Fatalf("insert-after multi: %v %+v", err, res)
	}
	kids, _ := xpath.Select(d, "/patients/*", nil)
	want := []string{"a1", "a2", "franck", "z1", "z2", "robert"}
	if len(kids) != len(want) {
		t.Fatalf("%d children", len(kids))
	}
	for i := range want {
		if kids[i].Label() != want[i] {
			got := make([]string, len(kids))
			for j, k := range kids {
				got[j] = k.Label()
			}
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// TestAppendMultiTopFragment: several top nodes all append under the target.
func TestAppendMultiTopFragment(t *testing.T) {
	d, h, p := paperEnv(t)
	res, _, err := Execute(d, h, p, "beaufort", &xupdate.Op{
		Kind: xupdate.Append, Select: "/patients",
		Content: fragment(t, "<p1/><p2>x</p2>"),
	})
	if err != nil || res.Applied != 1 || res.Created != 3 {
		t.Fatalf("append multi: %v %+v", err, res)
	}
	if countNodes(t, d, "/patients/p1") != 1 || countNodes(t, d, "/patients/p2") != 1 {
		t.Error("multi-top append incomplete")
	}
}

// TestRenameDocumentNodeSelection: selecting "/" is possible (axiom 15 puts
// it in every view) but renaming it is structurally refused.
func TestRenameDocumentNodeSelection(t *testing.T) {
	d, h, p := paperEnv(t)
	res, _, err := Execute(d, h, p, "laporte",
		&xupdate.Op{Kind: xupdate.Rename, Select: "/", NewValue: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected != 1 || res.Applied != 0 || len(res.Skipped) != 1 {
		t.Errorf("result = %+v", res)
	}
	// The document node also has no siblings for insert-before.
	res, _, err = Execute(d, h, p, "beaufort", &xupdate.Op{
		Kind: xupdate.InsertBefore, Select: "/", Content: fragment(t, "<x/>")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 0 || len(res.Skipped) != 1 {
		t.Errorf("insert beside document node: %+v", res)
	}
}

// TestUpdateAttributeThroughView: updating an attribute's value via its
// view node (attributes are first-class nodes in the model).
func TestUpdateAttributeThroughView(t *testing.T) {
	d, err := xmltree.ParseString(`<r><e id="old">t</e></r>`, xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := subject.NewHierarchy()
	if err := h.AddUser("u"); err != nil {
		t.Fatal(err)
	}
	p := policy.New()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(p.Grant(h, policy.Read, "/descendant-or-self::node()", "u"))
	must(p.Grant(h, policy.Read, "//@* | //@*/node()", "u"))
	must(p.Grant(h, policy.Update, "//@id/node()", "u"))
	res, _, err := Execute(d, h, p, "u",
		&xupdate.Op{Kind: xupdate.Update, Select: "/r/e/@id", NewValue: "new"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 {
		t.Fatalf("result = %+v", res)
	}
	if countNodes(t, d, "/r/e[@id='new']") != 1 {
		t.Error("attribute not updated through the view path")
	}
}

// guardReader builds the served path's read side on read: the user's
// rewrite guard as the filter and per-node axiom-14 decisions.
func guardReader(t *testing.T, read *xmltree.Document, h *subject.Hierarchy, p *policy.Policy, user string) Reader {
	t.Helper()
	pg, _ := rewrite.NewEngine(p, h).ProgramFor(user)
	ne, ok := p.NodeEvaluator(h, user)
	if pg == nil || !ok {
		t.Fatalf("policy not chain-only for %s", user)
	}
	sec, st := pg.SecurityFor(user, xpath.Vars{"USER": xpath.String(user)}, read)
	if st.Err() != nil {
		t.Fatal(st.Err())
	}
	return Reader{User: user, Doc: read, Sec: sec, Err: st.Err, Decide: ne.Decide}
}

// TestApplyMatchesExecute runs each operation through Execute, which
// derives the view itself, and through Apply with three other read sides
// on an identical document: a frozen view derived with the shared-scan
// evaluator, the guard over a frozen snapshot (the write document is a
// clone of it), and the guard over the write document itself. Results
// and resulting documents must agree, and the frozen view must come back
// untouched.
func TestApplyMatchesExecute(t *testing.T) {
	ops := []*xupdate.Op{
		{Kind: xupdate.Update, Select: "/patients/franck/diagnosis", NewValue: "pharyngitis"},
		{Kind: xupdate.Update, Select: "/patients/* | //diagnosis", NewValue: "x"},
		{Kind: xupdate.Rename, Select: "//diagnosis", NewValue: "dx"},
		{Kind: xupdate.Rename, Select: "/patients/* | /patients/*/diagnosis", NewValue: "franck"},
		{Kind: xupdate.Append, Select: "//diagnosis", Content: fragment(t, "<note>n</note>")},
		mustParseOp(t, `<xupdate:append select="/patients"><copy><xupdate:value-of select="/patients/*"/></copy></xupdate:append>`),
		{Kind: xupdate.InsertBefore, Select: "/patients/*/service", Content: fragment(t, "<ward/>")},
		{Kind: xupdate.InsertAfter, Select: "/patients/* | /patients", Content: fragment(t, "<ward/><bed/>")},
		{Kind: xupdate.Remove, Select: "//diagnosis/node()"},
		{Kind: xupdate.Remove, Select: "//diagnosis | //diagnosis/node()"},
	}
	readers := []struct {
		name string
		// reader returns the read side for user over a copy of ref,
		// and the write document.
		reader func(ref *xmltree.Document, h *subject.Hierarchy, p *policy.Policy, user string) (Reader, *xmltree.Document)
	}{
		{"view", func(ref *xmltree.Document, h *subject.Hierarchy, p *policy.Policy, user string) (Reader, *xmltree.Document) {
			doc := ref.Clone()
			pm, err := p.EvaluateShared(doc, h, user, nil)
			if err != nil {
				t.Fatal(err)
			}
			v := view.Materialize(doc, pm)
			v.Doc.Freeze()
			return Reader{User: user, Doc: v.Doc, Decide: PermsDecider(pm)}, doc
		}},
		{"guard-snapshot", func(ref *xmltree.Document, h *subject.Hierarchy, p *policy.Policy, user string) (Reader, *xmltree.Document) {
			snap := ref.Clone()
			snap.Freeze()
			return guardReader(t, snap, h, p, user), snap.Clone()
		}},
		{"guard-in-place", func(ref *xmltree.Document, h *subject.Hierarchy, p *policy.Policy, user string) (Reader, *xmltree.Document) {
			doc := ref.Clone()
			return guardReader(t, doc, h, p, user), doc
		}},
	}
	for _, user := range []string{"laporte", "beaufort", "robert"} {
		for _, op := range ops {
			for _, r := range readers {
				ref, h, p := paperEnv(t)
				rd, doc := r.reader(ref, h, p, user)
				want, _, wantErr := Execute(ref, h, p, user, op)
				before := rd.Doc.XML()
				got, err := Apply(context.Background(), doc, rd, op, nil)
				if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %s %s by %s: Apply %+v, %v; Execute %+v, %v", r.name, op.Kind, op.Select, user, got, err, want, wantErr)
				}
				if !xmltree.Equal(doc, ref) {
					t.Fatalf("%s: %s %s by %s: documents differ\ngot:\n%s\nwant:\n%s", r.name, op.Kind, op.Select, user, doc.Sketch(), ref.Sketch())
				}
				if rd.Doc != doc && rd.Doc.XML() != before {
					t.Fatalf("%s: %s %s by %s: Apply changed the read document", r.name, op.Kind, op.Select, user)
				}
			}
		}
	}
}

// mustParseOp parses a one-operation modification document.
func mustParseOp(t *testing.T, body string) *xupdate.Op {
	t.Helper()
	ops, err := xupdate.ParseModificationsString(`<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">` + body + `</xupdate:modifications>`)
	if err != nil || len(ops) != 1 {
		t.Fatalf("parse %s: %v", body, err)
	}
	return ops[0]
}

// TestApplyDecidesAsOfOperationStart: when the guard reads the write
// document itself, an earlier target's change must not alter a later
// target's decision. u may update /r/a and its subtree; renaming /r/a
// first moves /r/a/b out of the granted chain, yet the view at the
// operation's start — and so the reference — renames both.
func TestApplyDecidesAsOfOperationStart(t *testing.T) {
	ref, err := xmltree.ParseString(`<r><a><b>t</b></a></r>`, xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := subject.NewHierarchy()
	if err := h.AddUser("u"); err != nil {
		t.Fatal(err)
	}
	p := policy.New()
	for _, g := range []struct {
		priv policy.Privilege
		path string
	}{
		{policy.Read, "/descendant-or-self::node()"},
		{policy.Update, "/r/a/descendant-or-self::node()"},
	} {
		if err := p.Grant(h, g.priv, g.path, "u"); err != nil {
			t.Fatal(err)
		}
	}
	op := &xupdate.Op{Kind: xupdate.Rename, Select: "/r/a | /r/a/b", NewValue: "z"}
	doc := ref.Clone()
	want, _, err := Execute(ref, h, p, "u", op)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Apply(context.Background(), doc, guardReader(t, doc, h, p, "u"), op, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want.Applied != 2 || !reflect.DeepEqual(got, want) || !xmltree.Equal(doc, ref) {
		t.Fatalf("in-place guard: %+v, reference %+v\n%s", got, want, doc.Sketch())
	}
}

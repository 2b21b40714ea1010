package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"

	"securexml/internal/policy"
	"securexml/internal/storage"
	"securexml/internal/subject"
	"securexml/internal/view"
	"securexml/internal/workload"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
)

// illnesses are the diagnosis labels writes cycle through (the generator's
// own set, so a rewritten document stays in the same label space).
var illnesses = []string{"tonsillitis", "pneumonia", "angina", "bronchitis", "migraine", "fracture", "flu"}

// staffUsers are the paper's three staff logins (secretary, doctor,
// epidemiologist).
var staffUsers = []string{"beaufort", "laporte", "richard"}

// writerUser is the doctor: axiom 13 lets it update and delete
// //diagnosis/node() and insert into //diagnosis, so every generated write
// is fully applied.
const writerUser = "laporte"

// Spec sizes one workload. The three workloads differ in document size,
// user population, request mix and write load; everything else (the
// hospital shape, the axiom-13 policy, the server defaults) is shared.
type Spec struct {
	Name string `json:"name"`
	// Patients sizes the document (5 nodes per patient plus 2) and declares
	// one patient user per patient.
	Patients int `json:"patients"`
	// Staff selects the staff-scan mix: the three staff users issue
	// whole-document queries and the patient users stay idle.
	Staff bool `json:"staff_scan"`
	// Readers is the number of closed-loop HTTP read clients.
	Readers int `json:"readers"`
	// WriteRate is the open-loop writer's rate in writes/s during the
	// measured window; 0 makes the window read-only.
	WriteRate float64 `json:"write_rate_per_s"`
	// StaffEvery sends 1 in StaffEvery portal requests as a staff user (0:
	// patients only).
	StaffEvery int `json:"staff_every"`
	// ProbeWrites is the size of the closed-loop write probe that read-only
	// workloads run after their read window, with the readers stopped.
	ProbeWrites int `json:"probe_writes"`
}

// Specs are the benchmark's workloads (see README.md for why each exists).
var Specs = map[string]Spec{
	"patient-portal": {Name: "patient-portal", Patients: 1000, Readers: 2, ProbeWrites: 500},
	"staff-scan":     {Name: "staff-scan", Patients: 5000, Staff: true, Readers: 2, ProbeWrites: 100},
	"ward-churn":     {Name: "ward-churn", Patients: 1000, Readers: 1, WriteRate: 10, StaffEvery: 5},
}

// Request kinds, by endpoint.
const (
	kindQuery = "query"
	kindValue = "value"
	kindView  = "view"
)

// ReadReq is one HTTP read: GET /query, /value or /view as User.
type ReadReq struct {
	User string
	Kind string
	Expr string
}

// WriteReq is one POST /update body as writerUser.
type WriteReq struct {
	Body string
	Ops  int
}

// Inputs are everything a run derives from (spec, seed): the snapshot the
// server restores, the benchmark's own copy of the same state, and the
// request streams.
type Inputs struct {
	Spec     Spec
	Snapshot []byte
	// Doc, Subjects and Policy are the benchmark's private copy of the
	// database state, for the reference answers and the write mirror.
	Doc      *xmltree.Document
	Subjects *subject.Hierarchy
	Policy   *policy.Policy
	// Warm lists every (user, request) pair the warm-up pass sends.
	Warm []ReadReq
	// Writes is the write stream, in send order.
	Writes []WriteReq
}

// patientName is the login (and element name) of patient i.
func patientName(i int) string { return fmt.Sprintf("p%d", i) }

// portalRequests is the patient-portal request set about patient target,
// sent as user: the target's diagnosis text, every visible diagnosis, the
// diagnosis string value and the whole view.
func portalRequests(user string, target int) [4]ReadReq {
	p := patientName(target)
	return [4]ReadReq{
		{User: user, Kind: kindQuery, Expr: "/patients/" + p + "/diagnosis/text()"},
		{User: user, Kind: kindQuery, Expr: "//diagnosis"},
		{User: user, Kind: kindValue, Expr: "string(/patients/" + p + "/diagnosis)"},
		{User: user, Kind: kindView},
	}
}

// scanRequests is the staff-scan request set: every query covers the
// whole document.
func scanRequests(user string) [4]ReadReq {
	return [4]ReadReq{
		{User: user, Kind: kindQuery, Expr: "//diagnosis/text()"},
		{User: user, Kind: kindQuery, Expr: "/patients/*/service"},
		{User: user, Kind: kindQuery, Expr: "//service[text()='oncology']"},
		{User: user, Kind: kindValue, Expr: "count(//diagnosis)"},
	}
}

// pickPortal draws one portal request: 1 in 10 is the view, the other
// three requests share the rest evenly.
func pickPortal(rng *rand.Rand, set [4]ReadReq) ReadReq {
	if rng.Intn(10) == 0 {
		return set[3]
	}
	return set[rng.Intn(3)]
}

// NextRead draws the next read of a client stream.
func (in *Inputs) NextRead(rng *rand.Rand) ReadReq {
	sp := in.Spec
	if sp.Staff {
		set := scanRequests(staffUsers[rng.Intn(len(staffUsers))])
		return set[rng.Intn(len(set))]
	}
	target := rng.Intn(sp.Patients)
	user := patientName(target)
	if sp.StaffEvery > 0 && rng.Intn(sp.StaffEvery) == 0 {
		user = staffUsers[rng.Intn(len(staffUsers))]
	}
	return pickPortal(rng, portalRequests(user, target))
}

// GenerateInputs builds the inputs of one run from the spec and the seed.
// The same (spec, seed) always yields the same inputs.
func GenerateInputs(sp Spec, seed int64, writes int) (*Inputs, error) {
	doc, err := workload.Hospital(workload.HospitalConfig{Patients: sp.Patients, Seed: seed})
	if err != nil {
		return nil, err
	}
	h, err := workload.HospitalHierarchy(sp.Patients)
	if err != nil {
		return nil, err
	}
	pol, err := workload.HospitalPolicy(h)
	if err != nil {
		return nil, err
	}
	rules := make([]policy.Rule, 0, pol.Len())
	for _, r := range pol.Rules() {
		rules = append(rules, *r)
	}
	var snap bytes.Buffer
	if err := storage.Write(&snap, &storage.Snapshot{SchemeName: "fracpath", Doc: doc, Subjects: h, Rules: rules}); err != nil {
		return nil, err
	}
	in := &Inputs{Spec: sp, Snapshot: snap.Bytes(), Doc: doc, Subjects: h, Policy: pol}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	switch {
	case sp.Staff:
		for _, u := range staffUsers {
			set := scanRequests(u)
			in.Warm = append(in.Warm, set[:]...)
		}
	default:
		for i := 0; i < sp.Patients; i++ {
			set := portalRequests(patientName(i), i)
			in.Warm = append(in.Warm, set[:]...)
		}
		if sp.StaffEvery > 0 {
			for _, u := range staffUsers {
				set := portalRequests(u, rng.Intn(sp.Patients))
				in.Warm = append(in.Warm, set[:]...)
			}
		}
	}
	for i := 0; i < writes; i++ {
		in.Writes = append(in.Writes, genWrite(rng, i, sp.Patients))
	}
	return in, nil
}

// genWrite draws write k: every third write removes a random patient's
// diagnosis text and appends a fresh text node, the others rewrite it in
// place (xupdate:update relabels the selected element's children), so the
// document keeps its size. The mix is fixed by position rather than drawn,
// so every run sends the same share of two-operation writes.
func genWrite(rng *rand.Rand, k, patients int) WriteReq {
	target := rng.Intn(patients)
	ill := illnesses[rng.Intn(len(illnesses))]
	sel := "/patients/" + patientName(target) + "/diagnosis"
	const head = `<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">`
	const tail = `</xupdate:modifications>`
	if k%3 != 2 {
		return WriteReq{Ops: 1,
			Body: head + `<xupdate:update select="` + sel + `">` + ill + `</xupdate:update>` + tail}
	}
	return WriteReq{Ops: 2,
		Body: head + `<xupdate:remove select="` + sel + `/node()"/>` +
			`<xupdate:append select="` + sel + `"><xupdate:text>` + ill + `</xupdate:text></xupdate:append>` + tail}
}

// refKey identifies one (user, request) pair.
type refKey struct{ user, kind, expr string }

func keyOf(r ReadReq) refKey { return refKey{r.User, r.Kind, r.Expr} }

// References computes the expected response body of every warm-up pair on
// the benchmark's own copy of the database, through the paper's reference
// pipeline: policy.Evaluate (axiom 14), view.Materialize (axioms 15–17),
// then the query on the view, formatted as the server formats it.
func References(doc *xmltree.Document, h *subject.Hierarchy, pol *policy.Policy, reqs []ReadReq) (map[refKey]string, error) {
	byUser := map[string][]ReadReq{}
	var users []string
	for _, r := range reqs {
		if _, ok := byUser[r.User]; !ok {
			users = append(users, r.User)
		}
		byUser[r.User] = append(byUser[r.User], r)
	}
	out := make(map[refKey]string, len(reqs))
	for _, u := range users {
		pm, err := pol.Evaluate(doc, h, u)
		if err != nil {
			return nil, err
		}
		v := view.Materialize(doc, pm)
		for _, r := range byUser[u] {
			body, err := answerOnView(v, r)
			if err != nil {
				return nil, fmt.Errorf("reference for %s %s %q: %w", u, r.Kind, r.Expr, err)
			}
			out[keyOf(r)] = body
		}
	}
	return out, nil
}

// answerOnView renders the response body the server must return for r,
// evaluated on the user's materialized view.
func answerOnView(v *view.View, r ReadReq) (string, error) {
	vars := xpath.Vars{"USER": xpath.String(r.User)}
	switch r.Kind {
	case kindView:
		return v.Doc.XML(), nil
	case kindValue:
		c, err := xpath.Compile(r.Expr)
		if err != nil {
			return "", err
		}
		val, err := c.Eval(v.Doc.Root(), vars)
		if err != nil {
			return "", err
		}
		return val.Str() + "\n", nil
	default:
		ns, err := xpath.Select(v.Doc, r.Expr, vars)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		for _, n := range ns {
			writeRow(&b, n.Path(), n.Kind(), n.StringValue())
		}
		return b.String(), nil
	}
}

// writeRow renders one /query result line as the server does.
func writeRow(b *strings.Builder, path string, kind xmltree.Kind, value string) {
	fmt.Fprintf(b, "%s\t%s\t%s\n", path, kind, strings.ReplaceAll(value, "\n", " "))
}

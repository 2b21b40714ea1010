package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"regexp"
	"strings"

	"securexml/internal/access"
	"securexml/internal/core"
	"securexml/internal/xmltree"
	"securexml/internal/xupdate"
)

// checkRead is the read oracle; it records the outcome and reports whether
// the answer was accepted. While the document is still the generated one
// (exact), every answer must equal the reference computed on the
// benchmark's own copy. Under write churn the document moves, so a
// patient's answer is checked for leaks instead (§2.2: nothing of another
// patient's record) and a staff answer for its shape.
func (r *runner) checkRead(req ReadReq, res readRes, exact bool) bool {
	ok, why := r.judgeRead(req, res, exact)
	r.acct.add(ok, func() string {
		return fmt.Sprintf("%s %s %q: status %d: %s", req.User, req.Kind, req.Expr, res.status, why)
	})
	return ok
}

func (r *runner) judgeRead(req ReadReq, res readRes, exact bool) (bool, string) {
	if res.status != http.StatusOK {
		return false, strings.TrimSpace(string(res.body))
	}
	body := string(res.body)
	if exact {
		want, known := r.refs[keyOf(req)]
		if !known {
			return false, "no reference answer"
		}
		if body != want {
			return false, "answer differs from the reference"
		}
		return true, ""
	}
	if strings.HasPrefix(req.User, "p") {
		if leak := leakedPatient(req, body); leak != "" {
			return false, "leaked record of " + leak
		}
		return true, ""
	}
	if req.Kind == kindQuery {
		lines := strings.Count(body, "\n")
		if req.Expr == "//diagnosis" && lines != r.in.Spec.Patients {
			return false, fmt.Sprintf("%d diagnoses, want %d", lines, r.in.Spec.Patients)
		}
		if req.Expr != "//diagnosis" && lines > 1 {
			return false, fmt.Sprintf("%d text nodes under one diagnosis", lines)
		}
	}
	return true, ""
}

// patientTag matches a patient element in a serialized view.
var patientTag = regexp.MustCompile(`<(p[0-9]+)[ />]`)

// leakedPatient returns the name of another patient whose record appears
// in a patient's answer, or "".
func leakedPatient(req ReadReq, body string) string {
	self := req.User
	switch req.Kind {
	case kindView:
		for _, m := range patientTag.FindAllStringSubmatch(body, -1) {
			if m[1] != self {
				return m[1]
			}
		}
	case kindQuery:
		for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
			if line == "" {
				continue
			}
			path, _, _ := strings.Cut(line, "\t")
			if !strings.HasPrefix(path+"/", "/patients/"+self+"/") {
				return path
			}
		}
	}
	return ""
}

// mirror replays acknowledged writes, in acknowledgement order, on the
// benchmark's own copy of the document. A secured mirror runs them through
// the paper's executor (access.Execute); the read-only workloads' write
// probe uses the unsecured executor, because a secured replay on the
// staff-scan document costs about as much as the probe itself and every
// probe write's acknowledgement already shows it was applied in full.
type mirror struct {
	in      *Inputs
	doc     *xmltree.Document
	secured bool
}

func newMirror(in *Inputs, secured bool) *mirror {
	return &mirror{in: in, doc: in.Doc.Clone(), secured: secured}
}

// apply executes one acknowledged write on the mirror.
func (m *mirror) apply(w WriteReq) error {
	ops, err := xupdate.ParseModificationsString(w.Body)
	if err != nil {
		return err
	}
	for _, op := range ops {
		var res *xupdate.Result
		if m.secured {
			res, _, err = access.Execute(m.doc, m.in.Subjects, m.in.Policy, writerUser, op)
		} else {
			res, err = xupdate.Execute(m.doc, op, nil)
		}
		if err != nil {
			return err
		}
		if res.Applied != 1 {
			return fmt.Errorf("mirror: %s applied %d nodes, want 1", op.Kind, res.Applied)
		}
	}
	return nil
}

// checkState is the durability and commit oracle: the live source must
// equal the mirror, and when the run journaled writes, recovering the
// snapshot plus the journal must reproduce the same source.
func (r *runner) checkState(e *env, m *mirror, recoverToo bool) error {
	want := m.doc.XML()
	if got := e.db.SourceXML(); got != want {
		return fmt.Errorf("live source differs from the mirror of the acknowledged writes")
	}
	if !recoverToo {
		return nil
	}
	jf, err := os.Open(e.journal.Name())
	if err != nil {
		return err
	}
	defer jf.Close()
	rec, _, err := core.Recover(bytes.NewReader(r.in.Snapshot), jf)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	if rec.SourceXML() != want {
		return fmt.Errorf("recovered source differs from the mirror")
	}
	return nil
}

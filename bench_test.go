package securexml_test

// The performance study of EXPERIMENTS.md (experiments B1–B9 in DESIGN.md).
// The paper itself has no empirical evaluation; these benchmarks provide
// the scaling characterization of each design decision the model forces:
// view materialization cost, XPath axis costs, secured-vs-unsecured write
// overhead, labeling scheme behaviour, logic-vs-native engine gap,
// conflict resolution scaling, query filtering vs views, the session
// layer's cache and journal, and the XSLT security processor — plus the
// rewrite tier's guarded reads (BenchmarkGuardedRead).

import (
	"bytes"
	"fmt"
	"testing"

	"strings"

	"securexml/internal/access"
	"securexml/internal/baseline"
	"securexml/internal/core"
	"securexml/internal/labeling"
	"securexml/internal/logicmodel"
	"securexml/internal/policy"
	"securexml/internal/qfilter"
	"securexml/internal/rewrite"
	"securexml/internal/storage"
	"securexml/internal/subject"
	"securexml/internal/view"
	"securexml/internal/workload"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
	"securexml/internal/xslt"
	"securexml/internal/xupdate"
)

// mustHospital builds the standard bench environment.
func mustHospital(b *testing.B, patients, records int) (*xmltree.Document, *subject.Hierarchy, *policy.Policy) {
	b.Helper()
	d, err := workload.Hospital(workload.HospitalConfig{Patients: patients, RecordsPerPatient: records, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	h, err := workload.HospitalHierarchy(patients)
	if err != nil {
		b.Fatal(err)
	}
	p, err := workload.HospitalPolicy(h)
	if err != nil {
		b.Fatal(err)
	}
	return d, h, p
}

// --- B1: view materialization -------------------------------------------------

// BenchmarkViewMaterialization sweeps document size × policy size for the
// secretary role (whose view mixes read, position and full visibility).
func BenchmarkViewMaterialization(b *testing.B) {
	for _, patients := range []int{10, 100, 1000, 5000} {
		for _, extraRules := range []int{0, 32, 128} {
			name := fmt.Sprintf("patients=%d/extraRules=%d", patients, extraRules)
			b.Run(name, func(b *testing.B) {
				d, err := workload.Hospital(workload.HospitalConfig{Patients: patients, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				h, err := workload.HospitalHierarchy(patients)
				if err != nil {
					b.Fatal(err)
				}
				p, err := workload.ScaledPolicy(h, extraRules)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pm, err := p.Evaluate(d, h, "beaufort")
					if err != nil {
						b.Fatal(err)
					}
					v := view.Materialize(d, pm)
					if v.Doc.Len() == 0 {
						b.Fatal("empty view")
					}
				}
			})
		}
	}
}

// --- B2: XPath axis costs -------------------------------------------------------

// BenchmarkXPath sweeps representative axes and selectivities on a random
// tree.
func BenchmarkXPath(b *testing.B) {
	d, err := workload.RandomTree(workload.TreeConfig{Nodes: 20000, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	queries := []struct {
		name, path string
	}{
		{"child", "/root/*"},
		{"descendant", "//item"}, // served by the element-name index
		{"descendant-walk", "/descendant-or-self::*/self::item"}, // same answer, full walk
		{"descendant-text", "//item/text()"},
		{"predicate-position", "//group[2]"},
		{"predicate-value", "//item[text() = 'v100']"},
		{"ancestor", "//item[1]/ancestor::*"},
		{"following-sibling", "/root/*[1]/following-sibling::*"},
		{"union", "//a | //b"},
		{"count", "count(//item)"},
	}
	for _, q := range queries {
		b.Run(q.name, func(b *testing.B) {
			c, err := xpath.Compile(q.path)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Eval(d.Root(), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- B3: secured vs unsecured vs baseline writes --------------------------------

// BenchmarkSecuredUpdate compares the write paths on the same
// operation: the paper's view-mediated writes (the reference executor,
// which materializes the writer's view), the [10]-style baseline
// (source-evaluated), the raw unsecured executor, and the served path —
// core.Session.Update by a writer who never read, selecting through the
// guard table of each freshly published snapshot.
func BenchmarkSecuredUpdate(b *testing.B) {
	const patients = 500
	op := &xupdate.Op{Kind: xupdate.Update, Select: "/patients/p250/diagnosis", NewValue: "seen"}

	b.Run("secured-view-writes", func(b *testing.B) {
		d, h, p := mustHospital(b, patients, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := access.Execute(d, h, p, "laporte", op); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("baseline-source-writes", func(b *testing.B) {
		d, h, p := mustHospital(b, patients, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := baseline.Execute(d, h, p, "laporte", op); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unsecured-floor", func(b *testing.B) {
		d, _, _ := mustHospital(b, patients, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := xupdate.Execute(d, op, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("served-cold-writer", func(b *testing.B) {
		d, h, p := mustHospital(b, patients, 0)
		rules := make([]policy.Rule, 0, p.Len())
		for _, r := range p.Rules() {
			rules = append(rules, *r)
		}
		var buf bytes.Buffer
		if err := storage.Write(&buf, &storage.Snapshot{SchemeName: d.Scheme().Name(), Doc: d, Subjects: h, Rules: rules}); err != nil {
			b.Fatal(err)
		}
		db, err := core.Open(&buf)
		if err != nil {
			b.Fatal(err)
		}
		s, err := db.Session("laporte")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res, err := s.Update(op); err != nil || res.Applied != 1 {
				b.Fatal(res, err)
			}
		}
	})
}

// --- B4: labeling scheme ablation ----------------------------------------------

// BenchmarkLabelScheme compares fracpath and lsdx on the two adversarial
// patterns: hot-spot appends and repeated midpoint splits. It also reports
// the final key length as a proxy for storage growth.
func BenchmarkLabelScheme(b *testing.B) {
	for _, name := range []string{"fracpath", "lsdx"} {
		scheme, err := labeling.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/append", func(b *testing.B) {
			b.ReportAllocs()
			prev := ""
			for i := 0; i < b.N; i++ {
				k, err := scheme.Between(prev, "")
				if err != nil {
					b.Fatal(err)
				}
				prev = k
			}
			b.ReportMetric(float64(len(prev)), "keybytes")
		})
		b.Run(name+"/midsplit", func(b *testing.B) {
			b.ReportAllocs()
			lo, _ := scheme.First()
			hi, err := scheme.Between(lo, "")
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				mid, err := scheme.Between(lo, hi)
				if err != nil {
					b.Fatal(err)
				}
				if i%2 == 0 {
					lo = mid
				} else {
					hi = mid
				}
			}
			b.ReportMetric(float64(len(lo)), "keybytes")
		})
		b.Run(name+"/document-build", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := workload.RandomTree(workload.TreeConfig{Nodes: 2000, Seed: 5, Scheme: scheme}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- B5: logic reference vs native engines --------------------------------------

// BenchmarkLogicVsNative derives the same secretary view through the
// Datalog encoding of the axioms and through the native engines — the
// quantitative argument for shipping a native engine with a logic oracle in
// tests rather than shipping the logic engine.
func BenchmarkLogicVsNative(b *testing.B) {
	for _, patients := range []int{5, 20, 50} {
		d, err := workload.Hospital(workload.HospitalConfig{Patients: patients, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		h, err := workload.HospitalHierarchy(patients)
		if err != nil {
			b.Fatal(err)
		}
		p, err := workload.HospitalPolicy(h)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("native/patients=%d", patients), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pm, err := p.Evaluate(d, h, "beaufort")
				if err != nil {
					b.Fatal(err)
				}
				_ = view.Materialize(d, pm)
			}
		})
		b.Run(fmt.Sprintf("logic/patients=%d", patients), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := logicmodel.Build(d, h, p, "beaufort")
				if err != nil {
					b.Fatal(err)
				}
				if len(m.ViewFacts()) == 0 {
					b.Fatal("empty logic view")
				}
			}
		})
	}
}

// --- B6: conflict resolution scaling ---------------------------------------------

// BenchmarkConflictResolution sweeps the rule count: axiom 14 resolution is
// linear in the applicable rules, each contributing one XPath evaluation.
func BenchmarkConflictResolution(b *testing.B) {
	d, err := workload.Hospital(workload.HospitalConfig{Patients: 200, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, extra := range []int{0, 16, 64, 256, 1024} {
		h, err := workload.HospitalHierarchy(200)
		if err != nil {
			b.Fatal(err)
		}
		p, err := workload.ScaledPolicy(h, extra)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rules=%d", p.Len()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Evaluate(d, h, "laporte"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- B7: query-filter enforcement vs view materialization ------------------------

// BenchmarkQueryFilter is the ablation for the paper's §5 future-work
// strategy (implemented in internal/qfilter): evaluate queries on the
// source through a security filter instead of materializing the view.
// Sweeps document size × queries-per-policy-epoch to expose the crossover:
// filtering wins one-shot queries, materialization amortizes.
func BenchmarkQueryFilter(b *testing.B) {
	for _, patients := range []int{100, 1000, 5000} {
		d, err := workload.Hospital(workload.HospitalConfig{Patients: patients, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		h, err := workload.HospitalHierarchy(patients)
		if err != nil {
			b.Fatal(err)
		}
		p, err := workload.HospitalPolicy(h)
		if err != nil {
			b.Fatal(err)
		}
		pm, err := p.Evaluate(d, h, "beaufort")
		if err != nil {
			b.Fatal(err)
		}
		query := xpath.MustCompile("/patients/*[service = 'cardiology']")
		b.Run(fmt.Sprintf("filtered-oneshot/patients=%d", patients), func(b *testing.B) {
			sec := qfilter.ForPerms(pm)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := query.SelectFiltered(d.Root(), nil, sec); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("view-oneshot/patients=%d", patients), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v := view.Materialize(d, pm) // not cached: one-shot
				if _, err := query.Select(v.Doc.Root(), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("view-amortized-100q/patients=%d", patients), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v := view.Materialize(d, pm)
				for q := 0; q < 100; q++ {
					if _, err := query.Select(v.Doc.Root(), nil); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("filtered-100q/patients=%d", patients), func(b *testing.B) {
			sec := qfilter.ForPerms(pm)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for q := 0; q < 100; q++ {
					if _, err := query.SelectFiltered(d.Root(), nil, sec); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// --- Guarded reads: the rewrite tier's guard tables --------------------------------

// BenchmarkGuardedRead measures one rewrite-tier query on the source
// document under its guard (internal/rewrite), for a patient (whose table
// prunes every other patient's subtree) and a doctor (who reads nearly the
// whole document). warm: the user's table for the newest snapshot is
// cached, so each visited node costs a slice index. cold: the reader is
// pinned to a superseded snapshot, so every call fills a fresh table with
// one walk of the rule bank — what each user pays once per published
// generation.
func BenchmarkGuardedRead(b *testing.B) {
	d, h, p := mustHospital(b, 1000, 2)
	older := d.Clone()
	older.Freeze()
	newest := d.Clone()
	newest.Freeze() // frozen last: the newest snapshot
	eng := rewrite.NewEngine(p, h)
	for _, c := range []struct{ name, user, query string }{
		{"patient", "p17", "/patients/p17/diagnosis/text()"},
		{"staff", "laporte", "//diagnosis/text()"},
	} {
		pg, reason := eng.ProgramFor(c.user)
		if pg == nil {
			b.Fatalf("%s: no rewrite program (%v)", c.user, reason)
		}
		pl, err := pg.PlanFor(c.query)
		if err != nil || pl.Mode != rewrite.PlanGuarded {
			b.Fatalf("%s: plan %v, err %v; want a guarded plan", c.query, pl, err)
		}
		vars := xpath.Vars{"USER": xpath.String(c.user)}
		pg.SecurityFor(c.user, vars, newest)
		for _, temp := range []struct {
			name string
			snap *xmltree.Document
		}{{"warm", newest}, {"cold", older}} {
			b.Run(c.name+"/"+temp.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sec, st := pg.SecurityFor(c.user, vars, temp.snap)
					ns, err := pl.Select(temp.snap.Root(), vars, sec)
					if err != nil || st.Err() != nil || len(ns) == 0 {
						b.Fatalf("%d nodes, err %v / %v", len(ns), err, st.Err())
					}
				}
			})
		}
	}
}

// --- B8: session layer — cache and journal overheads ------------------------------

// BenchmarkSessionLayer measures what the core layer adds on top of the raw
// engines: the per-query cost with the view cache warm (the common case), a
// cold query after an invalidating write, and the write cost with and
// without the operation journal.
func BenchmarkSessionLayer(b *testing.B) {
	const patients = 1000
	setup := func(b *testing.B, opts ...core.Option) (*core.Database, *core.Session) {
		b.Helper()
		d, err := workload.Hospital(workload.HospitalConfig{Patients: patients, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		db := core.New(append([]core.Option{core.WithAuditLimit(0)}, opts...)...)
		if err := db.LoadXMLString(d.XML()); err != nil {
			b.Fatal(err)
		}
		h := []error{
			db.AddRole("staff"), db.AddRole("doctor", "staff"),
			db.AddUser("laporte", "doctor"),
			db.Grant(policy.Read, "/descendant-or-self::node()", "staff"),
			db.Grant(policy.Update, "//diagnosis/node()", "doctor"),
		}
		for _, err := range h {
			if err != nil {
				b.Fatal(err)
			}
		}
		s, err := db.Session("laporte")
		if err != nil {
			b.Fatal(err)
		}
		return db, s
	}

	b.Run("query-warm-cache", func(b *testing.B) {
		_, s := setup(b)
		if _, err := s.Query("//diagnosis"); err != nil { // warm it
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Query("/patients/p500/diagnosis/text()"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("query-cold-after-write", func(b *testing.B) {
		_, s := setup(b)
		op := &xupdate.Op{Kind: xupdate.Update, Select: "/patients/p1/diagnosis", NewValue: "x"}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Update(op); err != nil { // invalidates the cache
				b.Fatal(err)
			}
			if _, err := s.Query("/patients/p500/diagnosis/text()"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("update-no-journal", func(b *testing.B) {
		_, s := setup(b)
		op := &xupdate.Op{Kind: xupdate.Update, Select: "/patients/p500/diagnosis", NewValue: "x"}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Update(op); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("update-journaled", func(b *testing.B) {
		var sink strings.Builder
		_, s := setup(b, core.WithJournal(&sink, 0))
		op := &xupdate.Op{Kind: xupdate.Update, Select: "/patients/p500/diagnosis", NewValue: "x"}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Update(op); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- B9: the XSLT security processor ------------------------------------------------

// BenchmarkXSLTSecurityProcessor compares the two ways to produce a
// per-user transformed report: filtered transform directly on the source
// (the §5 security processor) vs materializing the view and transforming
// it — the stylesheet-level version of the B7 ablation.
func BenchmarkXSLTSecurityProcessor(b *testing.B) {
	sheet := xslt.MustParseStylesheet(`
<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:template match="/">
    <report patients="{count(/patients/*)}"><xsl:apply-templates select="/patients/*"/></report>
  </xsl:template>
  <xsl:template match="/patients/*">
    <row who="{name()}" dx="{diagnosis}"/>
  </xsl:template>
</xsl:stylesheet>`)
	for _, patients := range []int{100, 1000} {
		d, h, p := mustHospital(b, patients, 0)
		pm, err := p.Evaluate(d, h, "beaufort")
		if err != nil {
			b.Fatal(err)
		}
		sec := qfilter.ForPerms(pm)
		b.Run(fmt.Sprintf("filtered/patients=%d", patients), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sheet.Transform(d, nil, sec); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("view-then-transform/patients=%d", patients), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v := view.Materialize(d, pm)
				if _, err := sheet.Transform(v.Doc, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

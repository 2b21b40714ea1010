package srcanalysis

import (
	"go/ast"
	"go/types"
)

// obslabelPass keeps the telemetry layer out of the §2.2 covert-channel
// business: every string handed to internal/obs as a metric name or label
// value must be provably drawn from a finite, compile-time set. A label
// interpolated from document content (fmt.Sprintf of a node value, a user
// string, a query) would republish data on /metrics that the view already
// redacted.
//
// Accepted label sources:
//   - compile-time constants (including constant expressions),
//   - calls to bounded-label functions — functions whose every return
//     statement yields an accepted value (e.g. Kind.MetricLabel, which
//     switches over the enum and returns literals),
//   - parameters, when every call site of the enclosing function in the
//     whole program passes an accepted value (constant-forwarding
//     helpers like core's newSessionOps).
var obslabelPass = &pass{
	name: "obslabel",
	doc:  "metric names and label values must be compile-time bounded",
	run:  runObslabel,
}

func runObslabel(a *analysis) {
	o := &obslabel{a: a, bounded: make(map[types.Object]verdict), fwd: make(map[types.Object]verdict)}
	obsPath := a.internalPath("obs")
	for _, pkg := range a.targets {
		if pkg.Path == obsPath {
			continue // the sink itself handles labels generically
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeOf(pkg.Info, call)
				if objPkgPath(callee) != obsPath || !isObsEntry(callee.Name()) {
					return true
				}
				if call.Ellipsis.IsValid() {
					a.reportf(pkg, call.Ellipsis, "nonconstant-label", types.ExprString(call.Args[len(call.Args)-1]),
						"obs.%s called with expanded label slice; labels must be spelled out so they are provably bounded", callee.Name())
					return true
				}
				for _, arg := range call.Args {
					if !isStringExpr(pkg.Info, arg) {
						continue
					}
					if o.boundedExpr(pkg, arg) {
						continue
					}
					a.reportf(pkg, arg.Pos(), "nonconstant-label", types.ExprString(arg),
						"obs.%s receives %s, which is not compile-time bounded; dynamic label values can re-leak view-restricted content on /metrics (§2.2)",
						callee.Name(), types.ExprString(arg))
				}
				return true
			})
		}
	}
}

// obslabel holds the memoized bounded-function and forwarded-parameter
// verdicts.
type obslabel struct {
	a       *analysis
	bounded map[types.Object]verdict // function: all returns bounded
	fwd     map[types.Object]verdict // parameter: all call sites bounded
	depth   int
}

// isObsEntry matches the obs package entry points that accept metric
// names or label values — registry constructors plus the tracing surface
// (span names, annotation keys and string annotation values all land on
// /traces, which republishes like /metrics). Tracer.Get is deliberately
// absent: a trace ID is user input used for lookup, never stored.
func isObsEntry(name string) bool {
	switch name {
	case "Counter", "Gauge", "Histogram", "Stage",
		"StartSpanCtx", "StartTrace",
		"Annotate", "AnnotateInt", "AnnotateCtx", "AnnotateIntCtx":
		return true
	}
	return false
}

func isStringExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// boundedExpr reports whether the expression's value is drawn from a
// compile-time-bounded set.
func (o *obslabel) boundedExpr(pkg *Pkg, e ast.Expr) bool {
	if o.depth > maxCleanDepth {
		return false
	}
	o.depth++
	defer func() { o.depth-- }()

	e = ast.Unparen(e)
	if isConst(pkg.Info, e) {
		return true
	}
	switch x := e.(type) {
	case *ast.Ident:
		obj := pkg.Info.Uses[x]
		if obj == nil {
			return false
		}
		if _, ok := obj.(*types.Const); ok {
			return true
		}
		return o.forwardedParam(obj)
	case *ast.CallExpr:
		callee := calleeOf(pkg.Info, x)
		fn, ok := callee.(*types.Func)
		if !ok {
			return false
		}
		return o.boundedFn(fn)
	}
	return false
}

// boundedFn reports whether every return statement of the function yields
// a bounded value (single string result only).
func (o *obslabel) boundedFn(fn *types.Func) bool {
	switch o.bounded[fn] {
	case cleanV:
		return true
	case dirtyV, pending:
		return false
	}
	o.bounded[fn] = pending
	ok := false
	if site := o.a.prog.declOf(fn); site != nil && site.decl.Body != nil {
		if sig, isSig := fn.Type().(*types.Signature); isSig && sig.Results().Len() == 1 {
			ok = true
			forReturns(site.decl.Body, func(ret *ast.ReturnStmt) {
				if len(ret.Results) != 1 || !o.boundedExpr(site.pkg, ret.Results[0]) {
					ok = false
				}
			})
		}
	}
	if ok {
		o.bounded[fn] = cleanV
	} else {
		o.bounded[fn] = dirtyV
	}
	return ok
}

// forwardedParam reports whether obj is a function parameter whose every
// call site in the loaded program passes a bounded value.
func (o *obslabel) forwardedParam(obj types.Object) bool {
	switch o.fwd[obj] {
	case cleanV:
		return true
	case dirtyV, pending:
		return false
	}
	ps := o.a.prog.paramOf(obj)
	if ps == nil {
		return false
	}
	o.fwd[obj] = pending
	sites := o.a.prog.callsOf(ps.fn)
	ok := len(sites) > 0
	for _, site := range sites {
		if site.call.Ellipsis.IsValid() || ps.index >= len(site.call.Args) ||
			!o.boundedExpr(site.pkg, site.call.Args[ps.index]) {
			ok = false
			break
		}
	}
	if ok {
		o.fwd[obj] = cleanV
	} else {
		o.fwd[obj] = dirtyV
	}
	return ok
}

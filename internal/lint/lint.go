// Package lint implements eslurmlint, a project-specific static-analysis
// pass that enforces the simulation core's determinism contract.
//
// Every experiment in this repository assumes the discrete-event simulator
// is bit-for-bit reproducible: same seed ⇒ same event ordering ⇒ same
// utilization/slowdown/AEA numbers. A single stray wall-clock read, global
// RNG call, or order-sensitive map iteration silently corrupts every
// downstream table. The analyzers here (run `eslurmlint -list` for the
// current set — the README table is drift-gated against it) turn that
// contract — and the kernel hot path's allocation budget and the
// documentation contract (pkgdoc) — into a merge gate; see each
// analyzer's Doc for the precise rule.
//
// The driver is built from the standard library only (go/ast, go/token,
// go/types, go/importer) — no external module dependencies — so the lint
// gate can never be the thing that breaks the build.
//
// Findings can be suppressed at a specific site with
//
//	//eslurmlint:ignore <analyzer> <reason>
//
// on the offending line or the line directly above it. The reason is
// mandatory: a suppression must explain why the site is deterministic (or
// why the dropped error is safe) so reviewers can audit the exceptions.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is a single analyzer diagnostic, printed as
// "file:line: [analyzer] message".
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the canonical file:line form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Package is one type-checked package ready for analysis.
type Package struct {
	// ImportPath is the module-qualified path (e.g. "eslurm/internal/sched").
	// Path-scoped rules (walltime's internal/-only scope, detrand's simnet
	// exemption) key off this. The test harness may override it to exercise
	// those scopes.
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Analyzer is one named determinism rule. Exactly one of Run and
// RunModule is set (or neither, for staleignore, which Run implements
// itself): Run sees one package at a time; RunModule sees every loaded
// package at once, for rules whose evidence spans packages (taint
// chains, randlabel's cross-package stream collisions).
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(p *Package) []Finding
	RunModule func(pkgs []*Package) []Finding
}

// Analyzers returns the full eslurmlint rule set in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		WalltimeAnalyzer, DetrandAnalyzer, MaporderAnalyzer, ErrdropAnalyzer,
		EvallocAnalyzer, GosimAnalyzer, TaintAnalyzer, FloatsumAnalyzer,
		RandlabelAnalyzer, EngineownAnalyzer, GlobalmutAnalyzer,
		StaleignoreAnalyzer, PkgdocAnalyzer,
		SpanleakAnalyzer, TimerleakAnalyzer, DrainpathAnalyzer, LookaheadAnalyzer,
	}
}

// AnalyzerNames returns the names of every registered analyzer.
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

// Run executes the analyzers over the packages and returns the surviving
// findings sorted by position. It collects every //eslurmlint:ignore
// directive once, runs every analyzer, filters the findings through the
// directives once, and then judges staleignore on the directives that
// silenced nothing. Malformed directives are themselves reported as
// findings of the pseudo-analyzer "suppress".
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	// A directive may name any registered analyzer without being
	// malformed, even when this run enables a subset.
	known := make(map[string]bool)
	enabled := make(map[string]bool, len(analyzers))
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
		enabled[a.Name] = true
	}
	sups, out := collectSuppressions(pkgs, known)

	var raw []Finding
	for _, a := range analyzers {
		switch {
		case a.Run != nil:
			for _, p := range pkgs {
				raw = append(raw, a.Run(p)...)
			}
		case a.RunModule != nil:
			raw = append(raw, a.RunModule(pkgs)...)
		}
	}
	for _, f := range raw {
		if !sups.covers(f) {
			out = append(out, f)
		}
	}
	if enabled["staleignore"] {
		for _, k := range sups.unused(enabled) {
			f := Finding{sups[k].pos, "staleignore",
				"//eslurmlint:ignore " + k.analyzer + " suppresses nothing; the finding it excused is gone — delete the directive (or fix the drift that moved it off the site)"}
			if !sups.covers(f) {
				out = append(out, f)
			}
		}
	}
	// Stable, so findings on one line of one analyzer keep the order the
	// analyzer reported them in.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// underInternal reports whether the package lives under an internal/
// subtree, where the virtual-clock-only rule applies.
func underInternal(importPath string) bool {
	return strings.Contains(importPath, "/internal/") || strings.HasPrefix(importPath, "internal/")
}

// pkgFunc resolves a call expression to the package-level *types.Func it
// invokes via a package selector (pkg.Fn). It returns nil for method
// calls, locally defined functions, and anything else.
func pkgFunc(p *Package, call *ast.CallExpr) *types.Func {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	if _, ok := p.Info.Uses[id].(*types.PkgName); !ok {
		return nil
	}
	fn, _ := p.Info.Uses[sel.Sel].(*types.Func)
	return fn
}

// calleeFunc resolves a call to its *types.Func whether it is invoked via
// a package selector, a method selector, or a plain identifier. Returns
// nil for calls through function-typed variables and builtins.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	}
	return nil
}

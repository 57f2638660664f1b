package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// TaintAnalyzer is the cross-function nondeterminism dataflow pass. The
// intra-function analyzers (walltime, detrand, maporder) catch a source
// *used* at its call site; this pass catches the value that escapes —
// returned from a helper, threaded through two more calls, and only then
// handed to the event heap or a metrics accumulator, where it silently
// breaks same-seed reproducibility.
//
// Sources (where nondeterminism enters):
//   - wall-clock reads: time.Now, time.Since, time.Until
//   - the global math/rand generator (rand.Intn, rand.Float64, ...)
//   - process environment: os.Getenv, os.LookupEnv, os.Environ
//   - map iteration order: the key/value variables of a `range` over a map
//
// Sinks (where nondeterminism becomes irreversible):
//   - simnet scheduling: Schedule/After/Every/RunUntil/Rand methods on a
//     type named Engine (matched structurally, like evalloc, so testdata
//     fakes and engine wrappers are covered) — a tainted time perturbs
//     the event heap and therefore the trace digest; a tainted Rand label
//     selects a nondeterministic stream
//   - reported metrics: any call into a package ending in internal/stats
//     (every experiment table and trace-digest figure is accumulated
//     through stats) — a tainted sample corrupts every downstream number
//
// The analysis runs on the summary engine (summary.go) it shares with
// engineown: each function body is summarized once per fixpoint round
// (does it return a source-derived value? do any of its parameters reach
// a sink?), and summaries compose across the call graph, so a taint
// chain may cross any number of function and package boundaries.
// Findings are reported at the call site where the tainted value is
// handed to the sink-reaching call, with the full chain — source
// position, intermediate calls, sink position — in the message.
var TaintAnalyzer = &Analyzer{
	Name:      "taint",
	Doc:       "track wall-clock/global-rand/env/map-order values across function boundaries into scheduling and metric sinks",
	RunModule: runTaint,
}

// taintSchedulers are the Engine methods whose arguments feed the event
// heap (or, for Rand, stream selection).
var taintSchedulers = map[string]bool{
	"Schedule": true, "After": true, "Every": true, "RunUntil": true, "Rand": true,
}

// mapOrderSrc is the desc of the map-iteration source; it is the one
// source a sort call can sanitize.
const mapOrderSrc = "map iteration order"

func runTaint(pkgs []*Package) []Finding {
	sorted := make(map[*summaryFunc]map[*types.Var]bool)
	return runSummaries(pkgs, summaryRules{
		analyzer: "taint",
		head:     "nondeterministic value from %s (%s) reaches %s (%s)",
		tail:     "; same-seed runs diverge — derive the value from the engine seed or virtual clock, or suppress with a reason",
		reports: func(p *Package) bool {
			// Skip the sink implementations themselves.
			return !strings.HasSuffix(p.ImportPath, "internal/simnet") && !strings.HasSuffix(p.ImportPath, "internal/stats")
		},
		sinks:  taintSinks,
		opaque: taintOpaque,
		source: sourceDesc,
		rangeSource: func(st *summaryState, s *ast.RangeStmt) *chain {
			if t := st.fn.pkg.Info.TypeOf(s.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					return &chain{desc: mapOrderSrc, pos: st.pos(s)}
				}
			}
			return nil
		},
		// Map-order taint is dropped when the variable is sorted somewhere
		// in the function (the set is fixed per body, keeping the
		// fixpoint monotone).
		assign: func(st *summaryState, v *types.Var, f flow) flow {
			if f.chain == nil || f.chain.desc != mapOrderSrc {
				return f
			}
			s, ok := sorted[st.fn]
			if !ok {
				s = sortSanitized(st.fn.pkg, st.fn.decl.Body)
				sorted[st.fn] = s
			}
			if s[v] {
				f.chain = nil
			}
			return f
		},
		indexFlows: true,
	})
}

// taintOpaque forwards the operands of a call the engine has no summary
// for (stdlib, interfaces, func values): this is what makes
// start.Round(...), fmt.Sprintf(tainted) and strconv on tainted work. A
// method on a tainted receiver (wall.Seconds()) is tainted too. A
// summarized callee whose summary gives the result nothing is exact.
func taintOpaque(st *summaryState, call *ast.CallExpr, _ *types.Func, summarized bool) flow {
	if summarized {
		return flow{}
	}
	var f flow
	for _, a := range call.Args {
		f = f.union(st.expr(a))
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && !isPkgSelector(st.fn.pkg, sel) {
		f = f.union(st.expr(sel.X))
	}
	return f
}

// taintSinks inspects every call: a tainted argument meeting a sink (or
// a sink-reaching parameter of a summarized callee) yields a finding at
// the call; a parameter-carrying argument extends the function's own
// summary.
func taintSinks(st *summaryState, n ast.Node) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return
	}
	callPos := st.pos(call)
	reach := func(a ast.Expr, sp *sinkPath) { st.reach(a, sp, callPos) }
	if desc := sinkDesc(calleeFunc(st.fn.pkg, call)); desc != "" {
		for _, a := range call.Args {
			reach(a, &sinkPath{desc: desc, pos: callPos})
		}
		return
	}
	st.throughCallee(call, reach)
}

// sortSanitized collects the variables the function passes to a
// sort/slices call anywhere in its body. A slice built in map order and
// then sorted by a total order is deterministic (the sorted-keys idiom
// maporder also recognizes), so map-order taint is dropped when it is
// assigned into a sanitized variable. Value-level sources (wall clock,
// global rand, env) survive sorting — ordering deterministic garbage
// does not make it clean.
func sortSanitized(p *Package, body *ast.BlockStmt) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(p, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if path := fn.Pkg().Path(); path != "sort" && path != "slices" {
			return true
		}
		for _, a := range call.Args {
			ast.Inspect(a, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if v, ok := p.Info.Uses[id].(*types.Var); ok {
						out[v] = true
					}
				}
				return true
			})
		}
		return true
	})
	return out
}

// sourceDesc classifies a callee as a nondeterminism source. Only
// package-level functions qualify: methods on a threaded *rand.Rand
// (rng.Intn, rng.ExpFloat64, ...) are the sanctioned seeded-stream
// pattern, not the global generator, even though they live in math/rand.
func sourceDesc(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return "time." + fn.Name()
		}
	case "math/rand":
		if detrandGlobal[fn.Name()] {
			return "rand." + fn.Name()
		}
	case "os":
		switch fn.Name() {
		case "Getenv", "LookupEnv", "Environ":
			return "os." + fn.Name()
		}
	}
	return ""
}

// sinkDesc classifies a callee as a direct sink; empty string if not.
func sinkDesc(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	if recvTypeName(fn) == "Engine" && taintSchedulers[fn.Name()] {
		return "Engine." + fn.Name()
	}
	if fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), "internal/stats") {
		return "stats." + fn.Name()
	}
	return ""
}

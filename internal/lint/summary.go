package lint

// summary.go is the interprocedural summary engine shared by taint and
// engineown. Both passes ask one question — does a property that enters
// at some expression (a nondeterminism source, an engine-bound value)
// reach a sink (a scheduling or metrics call; a goroutine, channel or
// package-level escape)? — and answer it the same way. Each function
// body is summarized once per fixpoint round: does a return value carry
// the property, which parameters flow to a return, which parameters
// reach a sink. Summaries compose across the call graph, so a chain may
// cross any number of function and package boundaries, and a finding
// carries the full origin → hops → sink chain in its message. A pass
// supplies only what differs through summaryRules.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// hop is one crossed call boundary on a chain or sink path.
type hop struct {
	fn  string
	pos token.Position
}

// chain is the witness path from where a value picked up the property
// to the value under discussion: the origin and every call boundary
// crossed since. Chains are first-wins: once a variable or summary has
// one it never changes, which keeps the fixpoints monotone.
type chain struct {
	desc string
	pos  token.Position
	hops []hop
}

func (c *chain) extend(fn string, pos token.Position) *chain {
	hops := make([]hop, len(c.hops), len(c.hops)+1)
	copy(hops, c.hops)
	return &chain{c.desc, c.pos, append(hops, hop{fn, pos})}
}

// sinkPath is the sink-side mirror of a chain: from a parameter's entry
// into a function to the sink it reaches, possibly through further
// callees.
type sinkPath struct {
	desc string
	pos  token.Position
	hops []hop
}

func (s *sinkPath) prepend(fn string, pos token.Position) *sinkPath {
	hops := make([]hop, 0, len(s.hops)+1)
	hops = append(hops, hop{fn, pos})
	return &sinkPath{s.desc, s.pos, append(hops, s.hops...)}
}

// flow is the dataflow value for one expression or variable: the chain
// that carries the property to it (nil if none) and the bitmask of
// enclosing-function parameters it may carry.
type flow struct {
	chain  *chain
	params uint64
}

func (f flow) empty() bool { return f.chain == nil && f.params == 0 }

func (f flow) union(g flow) flow {
	out := f
	if out.chain == nil {
		out.chain = g.chain
	}
	out.params |= g.params
	return out
}

// summaryFunc is one analyzable function body plus its evolving summary.
type summaryFunc struct {
	pkg      *Package
	decl     *ast.FuncDecl
	name     string // qualified for chain messages, e.g. "sched.pickNode"
	paramIdx map[*types.Var]int
	// Summary, grown monotonically across fixpoint rounds:
	retChain  *chain            // a return value carries the property independent of params
	paramRet  uint64            // param i flows to a return value
	paramSink map[int]*sinkPath // param i reaches a sink
}

// summaryRules is what one pass plugs into the engine. A nil hook or
// false flag takes the default its comment names.
type summaryRules struct {
	analyzer string
	// head formats a finding's origin and sink from (origin desc, origin
	// position, sink desc, sink position); the " via" hops and tail
	// follow it.
	head, tail string
	// reports selects the packages whose functions report findings;
	// summaries are computed for every package.
	reports func(p *Package) bool
	// sinks inspects one node of a body and hands every value meeting a
	// sink to st.reach, directly or through st.throughCallee.
	sinks func(st *summaryState, n ast.Node)
	// opaque is the flow of a call no summary explains: the callee has
	// none, or summarized is set and its summary gives the result nothing.
	opaque func(st *summaryState, call *ast.CallExpr, fn *types.Func, summarized bool) flow
	// value, when set, computes e's flow in place of st.operands(e).
	value func(st *summaryState, e ast.Expr) flow
	// source names the source a call to fn starts, "" for none. Nil: no
	// call starts a chain.
	source func(fn *types.Func) string
	// rangeSource returns the chain a range statement starts in its key
	// and value variables, or nil to forward the ranged value's flow to
	// the value variable. Nil: always forward.
	rangeSource func(st *summaryState, s *ast.RangeStmt) *chain
	// assign filters a flow before it merges into local v. Nil: keep it.
	assign func(st *summaryState, v *types.Var, f flow) flow
	// indexFlows makes x[i] carry i's flow as well as x's.
	indexFlows bool
	// fieldStores makes v.f = x give the holder v x's flow.
	fieldStores bool
}

type summaryEngine struct {
	summaryRules
	funcs map[*types.Func]*summaryFunc
	// ordered mirrors funcs in source order, so summary rounds and the
	// findings pass are deterministic regardless of map iteration.
	ordered []*summaryFunc
}

// runSummaries builds the function table over pkgs, runs the summary
// fixpoint, and returns the findings of the reported packages in source
// order, deduplicated.
func runSummaries(pkgs []*Package, rules summaryRules) []Finding {
	e := &summaryEngine{summaryRules: rules, funcs: make(map[*types.Func]*summaryFunc)}
	for _, p := range pkgs {
		for _, file := range p.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fn := newSummaryFunc(p, fd, obj)
				e.funcs[obj] = fn
				e.ordered = append(e.ordered, fn)
			}
		}
	}
	// Every update is first-wins or a bitmask union, so the state grows
	// monotonically and the loop terminates.
	for changed := true; changed; {
		changed = false
		for _, fn := range e.ordered {
			if e.summarize(fn) {
				changed = true
			}
		}
	}
	var out []Finding
	seen := make(map[string]bool)
	for _, fn := range e.ordered {
		if !e.reports(fn.pkg) {
			continue
		}
		for _, f := range e.analyze(fn, true) {
			key := f.Pos.Filename + fmt.Sprint(f.Pos.Line, f.Pos.Column) + f.Message
			if !seen[key] {
				seen[key] = true
				out = append(out, f)
			}
		}
	}
	return out
}

func newSummaryFunc(p *Package, fd *ast.FuncDecl, obj *types.Func) *summaryFunc {
	fn := &summaryFunc{
		pkg:       p,
		decl:      fd,
		name:      qualifiedFuncName(obj),
		paramIdx:  make(map[*types.Var]int),
		paramSink: make(map[int]*sinkPath),
	}
	i := 0
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if v, ok := p.Info.Defs[name].(*types.Var); ok {
					fn.paramIdx[v] = i
				}
				i++
			}
			if len(field.Names) == 0 {
				i++
			}
		}
	}
	return fn
}

// qualifiedFuncName renders pkg.Func or Type.Method for chain messages.
func qualifiedFuncName(fn *types.Func) string {
	if name := recvTypeName(fn); name != "" {
		return name + "." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// summarize recomputes fn's summary from its body and the current callee
// summaries; reports whether anything was added.
func (e *summaryEngine) summarize(fn *summaryFunc) bool {
	before := summarySignature(fn)
	e.analyze(fn, false)
	return summarySignature(fn) != before
}

func summarySignature(fn *summaryFunc) string {
	keys := make([]byte, 0, 8)
	for i := 0; i < 64; i++ {
		if fn.paramSink[i] != nil {
			keys = append(keys, byte(i))
		}
	}
	return fmt.Sprint(fn.retChain != nil, fn.paramRet, keys)
}

// analyze runs the intra-function dataflow for fn: it propagates flows
// through local variables to a fixpoint, folds return statements into
// the summary, then walks for sinks (emitting findings when report is
// set).
func (e *summaryEngine) analyze(fn *summaryFunc, report bool) []Finding {
	st := &summaryState{e: e, fn: fn, vars: make(map[*types.Var]flow)}
	// Assignments inside loops can read variables whose flow is only
	// established on a later statement walk.
	for changed := true; changed; {
		changed = false
		st.changed = &changed
		ast.Inspect(fn.decl.Body, st.propagateStmt)
	}
	st.changed = nil
	st.collectReturns()
	st.report = report
	ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
		e.sinks(st, n)
		return true
	})
	return st.findings
}

// summaryState is the per-body dataflow state of one analyze call.
type summaryState struct {
	e        *summaryEngine
	fn       *summaryFunc
	vars     map[*types.Var]flow
	changed  *bool
	report   bool
	findings []Finding
}

func (st *summaryState) pos(n ast.Node) token.Position {
	return st.fn.pkg.Fset.Position(n.Pos())
}

// setVar merges a flow into a variable, first-wins for chains.
func (st *summaryState) setVar(v *types.Var, f flow) {
	if v == nil {
		return
	}
	if st.e.assign != nil {
		f = st.e.assign(st, v, f)
	}
	if f.empty() {
		return
	}
	cur := st.vars[v]
	merged := cur.union(f)
	if merged != cur {
		st.vars[v] = merged
		if st.changed != nil {
			*st.changed = true
		}
	}
}

// lhsVar resolves an assignment target to the local it taints: a store
// into results[i] or *p taints the container.
func (st *summaryState) lhsVar(e ast.Expr) *types.Var {
	switch x := e.(type) {
	case *ast.Ident:
		return st.identVar(x)
	case *ast.IndexExpr:
		return st.lhsVar(x.X)
	case *ast.StarExpr:
		return st.lhsVar(x.X)
	case *ast.SelectorExpr:
		if st.e.fieldStores && !isPkgSelector(st.fn.pkg, x) {
			return st.lhsVar(x.X)
		}
	}
	return nil
}

// identVar resolves a defining or using identifier to its variable.
func (st *summaryState) identVar(id *ast.Ident) *types.Var {
	if v, ok := st.fn.pkg.Info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := st.fn.pkg.Info.Uses[id].(*types.Var)
	return v
}

// rangeVar resolves a range key or value to its variable, nil unless it
// is a plain identifier.
func (st *summaryState) rangeVar(e ast.Expr) *types.Var {
	if id, ok := e.(*ast.Ident); ok {
		return st.identVar(id)
	}
	return nil
}

// propagateStmt is the assignment/range walker for the local fixpoint.
func (st *summaryState) propagateStmt(n ast.Node) bool {
	switch s := n.(type) {
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
			// Multi-value: v1, v2 := f() — the call's flow reaches every
			// lhs (coarse but safe).
			f := st.expr(s.Rhs[0])
			for _, lhs := range s.Lhs {
				st.setVar(st.lhsVar(lhs), f)
			}
			return true
		}
		for i, rhs := range s.Rhs {
			if i < len(s.Lhs) {
				st.setVar(st.lhsVar(s.Lhs[i]), st.expr(rhs))
			}
		}
	case *ast.GenDecl:
		for _, spec := range s.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				if i < len(vs.Values) {
					if v, ok := st.fn.pkg.Info.Defs[name].(*types.Var); ok {
						st.setVar(v, st.expr(vs.Values[i]))
					}
				}
			}
		}
	case *ast.RangeStmt:
		if st.e.rangeSource != nil {
			if c := st.e.rangeSource(st, s); c != nil {
				st.setVar(st.rangeVar(s.Key), flow{chain: c})
				st.setVar(st.rangeVar(s.Value), flow{chain: c})
				return true
			}
		}
		// Ranging a carrying collection forwards its flow to the element
		// variable (indices stay clean).
		if f := st.expr(s.X); !f.empty() {
			st.setVar(st.rangeVar(s.Value), f)
		}
	}
	return true
}

// expr evaluates the dataflow value of an expression.
func (st *summaryState) expr(e ast.Expr) flow {
	if st.e.value != nil {
		return st.e.value(st, e)
	}
	return st.operands(e)
}

// operands evaluates e's flow from the variables and calls it is built
// from.
func (st *summaryState) operands(e ast.Expr) flow {
	p := st.fn.pkg
	switch x := e.(type) {
	case *ast.Ident:
		if v, ok := p.Info.Uses[x].(*types.Var); ok {
			f := st.vars[v]
			if i, isParam := st.fn.paramIdx[v]; isParam {
				f.params |= 1 << uint(i)
			}
			return f
		}
	case *ast.CallExpr:
		return st.call(x)
	case *ast.BinaryExpr:
		return st.expr(x.X).union(st.expr(x.Y))
	case *ast.ParenExpr:
		return st.operands(x.X)
	case *ast.UnaryExpr:
		return st.expr(x.X)
	case *ast.StarExpr:
		return st.expr(x.X)
	case *ast.SelectorExpr:
		// Field access on a carrying struct carries; pkg.Var does not.
		if !isPkgSelector(p, x) {
			return st.expr(x.X)
		}
	case *ast.IndexExpr:
		if st.e.indexFlows {
			return st.expr(x.X).union(st.expr(x.Index))
		}
		return st.expr(x.X)
	case *ast.SliceExpr:
		return st.expr(x.X)
	case *ast.TypeAssertExpr:
		return st.expr(x.X)
	case *ast.CompositeLit:
		var f flow
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				f = f.union(st.expr(kv.Value))
			} else {
				f = f.union(st.expr(el))
			}
		}
		return f
	}
	return flow{}
}

// call computes the flow of a call's result: type conversions and the
// operand-derived builtins forward their operands, source calls start a
// chain, summarized module functions compose precisely, and everything
// else is the pass's opaque rule.
func (st *summaryState) call(call *ast.CallExpr) flow {
	p := st.fn.pkg
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return st.expr(call.Args[0])
		}
		return flow{}
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append", "len", "cap", "min", "max":
				var f flow
				for _, a := range call.Args {
					f = f.union(st.expr(a))
				}
				return f
			}
			return flow{} // make, new, ... produce fresh values
		}
	}
	fn := calleeFunc(p, call)
	pos := st.pos(call)
	if st.e.source != nil {
		if desc := st.e.source(fn); desc != "" {
			return flow{chain: &chain{desc: desc, pos: pos}}
		}
	}
	callee, summarized := st.e.funcs[fn]
	if summarized {
		var f flow
		if callee.retChain != nil {
			f.chain = callee.retChain.extend(callee.name, pos)
		}
		if callee.paramRet != 0 {
			for i, a := range call.Args {
				if callee.paramRet&(1<<uint(i)) == 0 {
					continue
				}
				af := st.expr(a)
				if f.chain == nil && af.chain != nil {
					f.chain = af.chain.extend(callee.name, pos)
				}
				f.params |= af.params
			}
		}
		if !f.empty() {
			return f
		}
	}
	return st.e.opaque(st, call, fn, summarized)
}

// collectReturns folds return statements into the summary, skipping
// returns that belong to nested function literals.
func (st *summaryState) collectReturns() {
	fn := st.fn
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		switch s := n.(type) {
		case *ast.FuncLit:
			return // its returns are not fn's
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				f := st.expr(res)
				if fn.retChain == nil && f.chain != nil {
					fn.retChain = f.chain
				}
				fn.paramRet |= f.params
			}
		}
		for _, c := range children(n) {
			walk(c)
		}
	}
	walk(fn.decl.Body)
}

// reach records value e meeting sink path sp: a chain it carries becomes
// a finding at position at (when reporting), and every parameter it
// carries now reaches sp in the function's summary.
func (st *summaryState) reach(e ast.Expr, sp *sinkPath, at token.Position) {
	f := st.expr(e)
	if f.chain != nil && st.report {
		st.emit(f.chain, sp, at)
	}
	for i := 0; i < 64; i++ {
		if f.params&(1<<uint(i)) != 0 && st.fn.paramSink[i] == nil {
			st.fn.paramSink[i] = sp
		}
	}
}

// throughCallee hands each argument of a call to a summarized function
// to reach, along the sink path its parameter reaches.
func (st *summaryState) throughCallee(call *ast.CallExpr, reach func(a ast.Expr, sp *sinkPath)) {
	callee, ok := st.e.funcs[calleeFunc(st.fn.pkg, call)]
	if !ok || len(callee.paramSink) == 0 {
		return
	}
	for i, a := range call.Args {
		if sp := callee.paramSink[i]; sp != nil {
			reach(a, sp.prepend(callee.name, st.pos(call)))
		}
	}
}

// emit renders the full origin → hops → sink chain into one finding.
func (st *summaryState) emit(c *chain, sp *sinkPath, at token.Position) {
	var b strings.Builder
	fmt.Fprintf(&b, st.e.head, c.desc, shortPos(c.pos), sp.desc, shortPos(sp.pos))
	hops := append(append([]hop{}, c.hops...), sp.hops...)
	if len(hops) > 0 {
		parts := make([]string, len(hops))
		for i, h := range hops {
			parts[i] = fmt.Sprintf("%s (%s)", h.fn, shortPos(h.pos))
		}
		fmt.Fprintf(&b, " via %s", strings.Join(parts, " -> "))
	}
	b.WriteString(st.e.tail)
	st.findings = append(st.findings, Finding{at, st.e.analyzer, b.String()})
}

// isPkgSelector reports whether sel is pkg.Name rather than value.Method.
func isPkgSelector(p *Package, sel *ast.SelectorExpr) bool {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	_, isPkg := p.Info.Uses[id].(*types.PkgName)
	return isPkg
}

func shortPos(pos token.Position) string {
	return fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// EngineownAnalyzer is the engine-ownership escape analysis behind the
// sharded-kernel plan. The kernel's determinism contract is per-engine and
// single-threaded: every piece of mutable simulation state — the event
// heap, pooled events, memoized RNG streams, the metrics registry, the
// tracer, and every subsystem struct holding a *simnet.Engine — is owned
// by exactly one Engine and therefore by exactly one goroutine. A sharded
// kernel partitions engines across goroutines, so any engine-owned value
// that today leaks to another goroutine (captured in a go-spawned closure,
// sent over a channel, or parked in a package-level variable) becomes a
// cross-shard data race tomorrow.
//
// The pass runs on the summary engine (summary.go) it shares with taint:
// ownership enters at any expression whose type is engine-bound (the
// structural Engine type itself, or any named type transitively holding
// one — see namedBound), propagates through locals, method calls on owned
// receivers, and summarized module functions, and is reported where it
// escapes, with the full owner → hops → escape chain in the message.
// Values of basic underlying type (seeds, counts, durations, labels)
// never carry ownership: they are snapshots, not aliases.
//
// Escapes:
//   - goroutines: an engine-owned argument to a go'd call, an owned
//     variable captured by a go'd closure, or an owned receiver of a go'd
//     method call
//   - channel sends: ch <- owned (channels exist to cross goroutines)
//   - package-level variables: storing an owned value into module-global
//     state shares it with every engine in the process
//
// Unknown callees (stdlib, interface methods, func values) do NOT forward
// ownership through their arguments: ownership is an aliasing property,
// and a helper that returns an alias of its argument almost always
// returns the same engine-bound type, which the type rule catches anyway;
// forwarding through fmt.Sprintf or json.Marshal would flag harmless
// copies. This is the precision/soundness trade documented in DESIGN.md's
// ownership contract.
//
// The one sanctioned crossing is the shard kernel itself: package
// simnet's ShardGroup hands whole cells to window workers over its
// shardCmd channels and joins them over shardDone tokens, under the
// conservative-lookahead barrier that makes the handoff race-free (cells
// never run concurrently with the merge). Escapes whose escaping value's
// static type is simnet's ShardGroup, shardCmd, or shardDone (or a
// container of one) are therefore exempt — a typed exemption, not a
// package waiver: a raw Engine crossing a goroutine or channel in simnet
// still fires.
var EngineownAnalyzer = &Analyzer{
	Name:      "engineown",
	Doc:       "track engine-owned values (the engine, derived RNG/metrics/tracer state, engine-holding structs) across functions and flag escapes to goroutines, channels, or package-level variables; simnet's ShardGroup/shardCmd/shardDone barrier handoff is the one typed exemption",
	RunModule: runEngineown,
}

// sanctionedShardType reports whether t is (a container of) one of the
// shard kernel's sanctioned barrier-handoff types: ShardGroup, shardCmd,
// or shardDone declared in a package named simnet. These cross goroutines by
// design — the window protocol guarantees the receiving worker has
// exclusive access until the barrier — so escapes of exactly these types
// are not findings. Matching is structural (package name + type name),
// like the Engine type itself, so the lint testdata can model it.
func sanctionedShardType(t types.Type) bool {
	switch u := t.(type) {
	case *types.Named:
		obj := u.Obj()
		if obj.Pkg() == nil || obj.Pkg().Name() != "simnet" {
			return false
		}
		return obj.Name() == "ShardGroup" || obj.Name() == "shardCmd" || obj.Name() == "shardDone"
	case *types.Pointer:
		return sanctionedShardType(u.Elem())
	case *types.Slice:
		return sanctionedShardType(u.Elem())
	case *types.Array:
		return sanctionedShardType(u.Elem())
	case *types.Chan:
		return sanctionedShardType(u.Elem())
	case *types.Map:
		return sanctionedShardType(u.Elem())
	}
	return false
}

// ownWorld holds the engine-bound type set of one run.
type ownWorld struct {
	// bound memoizes engine affinity per named type. computeBound fills
	// it in package and scope order before any body is analyzed, so the
	// memo (and with it every finding) is independent of which
	// expression happens to ask first.
	bound map[*types.Named]bool
}

func runEngineown(pkgs []*Package) []Finding {
	ow := &ownWorld{bound: make(map[*types.Named]bool)}
	ow.computeBound(pkgs)
	out := runSummaries(pkgs, summaryRules{
		analyzer: "engineown",
		head:     "engine-owned %s (%s) escapes to %s (%s)",
		tail:     "; the sharded kernel requires all state reachable from an Engine to stay owned by exactly one goroutine — keep the value engine-local, or suppress with a reason",
		// cmd binaries run on host goroutines by design; the ownership
		// contract binds the simulation packages.
		reports:     func(p *Package) bool { return underInternal(p.ImportPath) },
		sinks:       ow.escapes,
		opaque:      receiverDerived,
		value:       ow.value,
		fieldStores: true,
	})
	// Package-level vars initialized with engine-bound values escape by
	// construction (no function context needed: the type says it all).
	for _, p := range pkgs {
		if !underInternal(p.ImportPath) {
			continue
		}
		for _, file := range p.Files {
			for _, d := range file.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						v, ok := p.Info.Defs[name].(*types.Var)
						if !ok || name.Name == "_" || !ow.typeBound(v.Type()) {
							continue
						}
						out = append(out, Finding{p.Fset.Position(name.Pos()), "engineown",
							"package-level var " + name.Name + " holds engine-bound " + types.TypeString(v.Type(), shortQualifier) + ": module-global engine state is shared by every engine in the process and becomes cross-shard state under the sharded kernel — construct engines per run and thread them explicitly, or suppress with a reason"})
					}
				}
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
	return out
}

// computeBound seeds the engine-bound type set: the structural Engine
// type itself plus every named type transitively reaching one through
// struct fields (directly, or via pointer/slice/array/map/chan of one).
func (ow *ownWorld) computeBound(pkgs []*Package) {
	for _, p := range pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				ow.namedBound(named, make(map[*types.Named]bool))
			}
		}
	}
}

// namedBound resolves (and memoizes) engine affinity for one named type.
// Cycles are broken by the visiting set: a type on the current resolution
// path contributes nothing new (if it is bound, another path proves it).
func (ow *ownWorld) namedBound(n *types.Named, visiting map[*types.Named]bool) bool {
	if b, ok := ow.bound[n]; ok {
		return b
	}
	if visiting[n] {
		return false
	}
	if n.Obj().Name() == "Engine" {
		ow.bound[n] = true
		return true
	}
	visiting[n] = true
	defer delete(visiting, n)
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		ow.bound[n] = false
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if ow.boundElem(st.Field(i).Type(), visiting) {
			ow.bound[n] = true
			return true
		}
	}
	ow.bound[n] = false
	return false
}

// boundElem unwraps containers down to a named type and reports whether
// it is engine-bound. Interfaces and func types never carry affinity at
// the type level.
func (ow *ownWorld) boundElem(t types.Type, visiting map[*types.Named]bool) bool {
	switch u := t.(type) {
	case *types.Named:
		return ow.namedBound(u, visiting)
	case *types.Pointer:
		return ow.boundElem(u.Elem(), visiting)
	case *types.Slice:
		return ow.boundElem(u.Elem(), visiting)
	case *types.Array:
		return ow.boundElem(u.Elem(), visiting)
	case *types.Map:
		return ow.boundElem(u.Elem(), visiting)
	case *types.Chan:
		return ow.boundElem(u.Elem(), visiting)
	}
	return false
}

// typeBound reports whether a value of type t carries engine affinity.
func (ow *ownWorld) typeBound(t types.Type) bool {
	return ow.boundElem(t, make(map[*types.Named]bool))
}

// shortQualifier renders cross-package type names as pkgname.Type.
func shortQualifier(other *types.Package) string { return other.Name() }

// value is the ownership of an expression. Values of basic underlying
// type never carry ownership: e.Seed(), e.Now(), len(...) are snapshots
// of engine state, not aliases to it. A value of engine-bound type
// starts a chain of its own when its operands carry none.
func (ow *ownWorld) value(st *summaryState, e ast.Expr) flow {
	t := st.fn.pkg.Info.TypeOf(e)
	if t != nil {
		if _, basic := t.Underlying().(*types.Basic); basic {
			return flow{}
		}
	}
	f := st.operands(e)
	if f.chain == nil && t != nil && ow.typeBound(t) {
		f.chain = &chain{desc: types.TypeString(t, shortQualifier) + " value", pos: st.pos(e)}
	}
	return f
}

// receiverDerived is the flow of a call no summary explains. Ownership
// transfers only through aliasing: the result of any method on an
// engine-owned value is engine-owned (it hands out a piece of the
// engine: e.Rand(label), e.Metrics(), their chains), while unknown
// callees drop their arguments' ownership — see the analyzer doc.
func receiverDerived(st *summaryState, call *ast.CallExpr, fn *types.Func, _ bool) flow {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || isPkgSelector(st.fn.pkg, sel) {
		return flow{}
	}
	f := st.expr(sel.X)
	if f.empty() {
		return flow{}
	}
	name := sel.Sel.Name
	if fn != nil {
		name = qualifiedFuncName(fn)
	}
	if f.chain != nil {
		f.chain = f.chain.extend(name, st.pos(call))
	}
	return f
}

// escapes walks for the three escape shapes plus calls into summarized
// escape-reaching functions.
func (ow *ownWorld) escapes(st *summaryState, n ast.Node) {
	switch s := n.(type) {
	case *ast.GoStmt:
		goEscape(st, s)
	case *ast.SendStmt:
		ownEscape(st, s.Value, &sinkPath{desc: "a channel send", pos: st.pos(s)})
	case *ast.AssignStmt:
		for i, lhs := range s.Lhs {
			gv := globalTarget(st.fn.pkg, lhs)
			if gv == nil {
				continue
			}
			var rhs ast.Expr
			switch {
			case len(s.Rhs) == 1:
				rhs = s.Rhs[0]
			case i < len(s.Rhs):
				rhs = s.Rhs[i]
			}
			if rhs == nil {
				continue
			}
			ownEscape(st, rhs, &sinkPath{desc: "a store into package-level var " + gv.Name(), pos: st.pos(s)})
		}
	case *ast.CallExpr:
		// A method call on a package-level var (collectors.Store(id, c),
		// registry.Add(e)) parks its owned arguments in module-global
		// state just as surely as a direct assignment would.
		if sel, ok := s.Fun.(*ast.SelectorExpr); ok && !isPkgSelector(st.fn.pkg, sel) {
			if gv := globalTarget(st.fn.pkg, sel.X); gv != nil {
				for _, a := range s.Args {
					ownEscape(st, a, &sinkPath{desc: "a call on package-level var " + gv.Name(), pos: st.pos(s)})
				}
			}
		}
		st.throughCallee(s, func(a ast.Expr, sp *sinkPath) { ownEscape(st, a, sp) })
	}
}

// ownEscape reports (or summarizes) one value meeting one escape, at the
// value's own position. simnet's barrier-handoff types are exempt.
func ownEscape(st *summaryState, e ast.Expr, sp *sinkPath) {
	if t := st.fn.pkg.Info.TypeOf(e); t != nil && sanctionedShardType(t) {
		return
	}
	st.reach(e, sp, st.pos(e))
}

// goEscape reports owned values handed to a go statement: arguments,
// captured variables of a go'd closure, and the receiver of a go'd
// method call.
func goEscape(st *summaryState, g *ast.GoStmt) {
	p := st.fn.pkg
	pos := st.pos(g)
	for _, a := range g.Call.Args {
		ownEscape(st, a, &sinkPath{desc: "a goroutine (argument to the go'd call)", pos: pos})
	}
	switch fun := g.Call.Fun.(type) {
	case *ast.FuncLit:
		seen := make(map[*types.Var]bool)
		ast.Inspect(fun.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := p.Info.Uses[id].(*types.Var)
			if !ok || seen[v] {
				return true
			}
			seen[v] = true
			if v.Pos() >= fun.Pos() && v.Pos() < fun.End() {
				return true // declared inside the literal
			}
			ownEscape(st, id, &sinkPath{desc: "a goroutine (captured by the go'd closure)", pos: pos})
			return true
		})
	case *ast.SelectorExpr:
		if !isPkgSelector(p, fun) {
			ownEscape(st, fun.X, &sinkPath{desc: "a goroutine (receiver of the go'd method call)", pos: pos})
		}
	}
}

// globalTarget resolves an assignment target to the package-level var it
// (or its element/field/pointee) denotes; nil for locals and params.
func globalTarget(p *Package, e ast.Expr) *types.Var {
	switch x := e.(type) {
	case *ast.Ident:
		v, ok := p.Info.Uses[x].(*types.Var)
		if !ok {
			v, ok = p.Info.Defs[x].(*types.Var)
		}
		if ok && isPkgLevelVar(v) {
			return v
		}
	case *ast.SelectorExpr:
		if isPkgSelector(p, x) {
			if v, ok := p.Info.Uses[x.Sel].(*types.Var); ok && isPkgLevelVar(v) {
				return v
			}
			return nil
		}
		return globalTarget(p, x.X)
	case *ast.IndexExpr:
		return globalTarget(p, x.X)
	case *ast.StarExpr:
		return globalTarget(p, x.X)
	case *ast.ParenExpr:
		return globalTarget(p, x.X)
	}
	return nil
}

// isPkgLevelVar reports whether v is declared at package scope (whose
// parent is the universe scope).
func isPkgLevelVar(v *types.Var) bool {
	return v.Parent() != nil && v.Parent().Parent() == types.Universe
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// The module call graph. One node per function or method declared with
// a body anywhere in the loaded snapshot; edges are the statically
// resolvable calls out of each body:
//
//   - direct calls to package-level functions (same or cross package);
//   - method calls on concrete receivers;
//   - method calls through an interface, which fan out to the method
//     on every in-module type that implements the interface (marked
//     dynamic — the conservative closure of what the dispatch could
//     reach at runtime).
//
// Calls through plain function values, method values passed around as
// data, and callees outside the module have no edge: the hotpath
// analyzer already flags closure creation in hot code, and the
// -escapes cross-check covers whatever the AST view cannot resolve.
//
// Call sites under panic(...) arguments contribute no edges (the
// process is dying), and neither do bodies of nested function literals
// (the literal itself is the allocation hot code is charged for; when
// it runs, it runs on whatever path invokes it, not here).
type callGraph struct {
	nodes map[*types.Func]*cgNode
}

// cgNode is one declared function.
type cgNode struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
	hot  bool // carries a //simlint:hotpath annotation
	out  []cgEdge
}

// cgEdge is one resolved call site.
type cgEdge struct {
	callee  *types.Func
	pos     token.Pos // the call, for chain reporting and allow auditing
	dynamic bool      // resolved through interface dispatch
}

// name renders the node for call chains: pkg.Func or pkg.Recv.Method.
func (n *cgNode) name() string {
	return funcChainName(n.fn)
}

func funcChainName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}

// buildCallGraph indexes every declared function of the packages and
// resolves the call edges out of each body.
func buildCallGraph(pkgs []*Package) *callGraph {
	cg := &callGraph{nodes: map[*types.Func]*cgNode{}}

	// Pass 1: nodes, plus the named types used for interface fan-out.
	var namedTypes []*types.Named
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				cg.nodes[fn] = &cgNode{fn: fn, decl: fd, pkg: pkg, hot: isHotpathAnnotated(fd)}
			}
		}
		scope := pkg.Types.Scope()
		names := scope.Names() // Names() is sorted: deterministic fan-out order
		for _, name := range names {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					namedTypes = append(namedTypes, named)
				}
			}
		}
	}

	// Pass 2: edges.
	for _, n := range cg.nodes {
		n.out = collectEdges(n.pkg, n.decl, namedTypes)
	}
	return cg
}

// collectEdges resolves the call sites of one function body.
func collectEdges(pkg *Package, fd *ast.FuncDecl, namedTypes []*types.Named) []cgEdge {
	var edges []cgEdge
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // nested literal bodies are not this function's path
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			if isBuiltin(pkg.Info, fun) {
				if fun.Name == "panic" {
					return false // dying: callees on the way out are moot
				}
				return true
			}
			if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
				edges = append(edges, cgEdge{callee: origin(fn), pos: call.Pos()})
			}
		case *ast.SelectorExpr:
			if sel, ok := pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
				mfn, ok := sel.Obj().(*types.Func)
				if !ok {
					return true
				}
				if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
					for _, impl := range implementations(iface, mfn, namedTypes) {
						edges = append(edges, cgEdge{callee: origin(impl), pos: call.Pos(), dynamic: true})
					}
					return true
				}
				edges = append(edges, cgEdge{callee: origin(mfn), pos: call.Pos()})
				return true
			}
			// Package-qualified call pkg.F(...).
			if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
				edges = append(edges, cgEdge{callee: origin(fn), pos: call.Pos()})
			}
		}
		return true
	})
	return edges
}

// origin normalizes generic instantiations back to their declaration.
func origin(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

// implementations returns the concrete method that each in-module type
// implementing iface would dispatch mfn to, in deterministic order.
func implementations(iface *types.Interface, mfn *types.Func, namedTypes []*types.Named) []*types.Func {
	var impls []*types.Func
	seen := map[*types.Func]bool{}
	for _, named := range namedTypes {
		if types.IsInterface(named) {
			continue
		}
		recv := types.Type(named)
		if !types.Implements(recv, iface) {
			recv = types.NewPointer(named)
			if !types.Implements(recv, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, mfn.Pkg(), mfn.Name())
		if impl, ok := obj.(*types.Func); ok && !seen[impl] {
			seen[impl] = true
			impls = append(impls, impl)
		}
	}
	sort.Slice(impls, func(i, j int) bool { return funcChainName(impls[i]) < funcChainName(impls[j]) })
	return impls
}

// hotChain is the shortest discovered call chain from an annotated
// root to a reached function.
type hotChain struct {
	node   *cgNode
	parent *hotChain
}

// render draws the chain root → … → leaf.
func (hc *hotChain) render() string {
	var parts []string
	for c := hc; c != nil; c = c.parent {
		parts = append(parts, c.node.name())
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out += " → " + p
	}
	return out
}

// hotReachable walks the call graph from every //simlint:hotpath
// function and returns the reached set with its discovery chains
// (breadth-first, so chains are shortest). A call on a line an
// audited //simlint:allow of m's check covers does not propagate.
func hotReachable(m *ModulePass) map[*cgNode]*hotChain {
	cg := m.Snap.CallGraph()
	reached := map[*cgNode]*hotChain{}
	var queue []*hotChain
	// Deterministic root order: chains must not depend on map order.
	var roots []*cgNode
	for _, n := range cg.nodes {
		if n.hot {
			roots = append(roots, n)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].decl.Pos() < roots[j].decl.Pos() })
	for _, n := range roots {
		hc := &hotChain{node: n}
		reached[n] = hc
		queue = append(queue, hc)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range cur.node.out {
			callee, ok := cg.nodes[e.callee]
			if !ok {
				continue // outside the module: no body to check
			}
			if _, ok := reached[callee]; ok {
				continue
			}
			if m.sink.suppress(m.Analyzer.Name, cur.node.pkg.Fset.Position(e.pos)) {
				continue // audited cold edge
			}
			hc := &hotChain{node: callee, parent: cur}
			reached[callee] = hc
			queue = append(queue, hc)
		}
	}
	return reached
}

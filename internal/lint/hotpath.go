package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Hotpath keeps hot paths allocation-free. The hot set is every
// function annotated with a `//simlint:hotpath` doc-comment line plus
// every function reachable from one over the module call graph
// (callgraph.go): an allocation hidden one helper down is exactly as
// hot as one written inline. The sim package's AllocsPerRun tests pin
// a handful of call sites at zero allocations; the walk turns that
// point coverage into surface coverage, checking every hot function
// once against the whole catalogue of things that allocate:
//
//   - &T{...} and slice/map composite literals
//   - make and new
//   - append that can grow a fresh slice (see below)
//   - function literals (closure allocation)
//   - fmt.* calls (formatting allocates)
//   - implicit or explicit conversion of a non-pointer value to an
//     interface (boxing)
//
// A finding in an annotated function reports the allocation alone; one
// in a reached function carries the call chain from its root:
//
//	hot call chain sched.Retrier.Read → sched.Retrier.admit:
//	make allocates in hot path
//
// Recycled-buffer appends are recognized and allowed: appending to a
// resliced buffer (`append(buf[:0], ...)`), growing a persistent
// field in place (`x.buf = append(x.buf, e)`), or growing a local
// that was initialized by reslicing one. Those retain capacity across
// uses, so steady state does not allocate. Constant arguments to
// interface parameters are also ignored. Everything under a panic(...)
// call is exempt — the process is dying, allocation is moot.
//
// Genuinely-amortized growth paths that the heuristics cannot see
// (pool refills, ring doubling) and genuinely cold call sites (a
// slow-path interface used only at setup; interface calls fan out to
// every in-module implementation) carry an audited
// `//simlint:allow hotpath (reason)`. It covers its line both ways:
// the allocation there is audited, and the calls there drop out of hot
// propagation, so the reason should account for both.
var Hotpath = &Analyzer{
	Name:      "hotpath",
	Doc:       "allocation source in a //simlint:hotpath function or one it reaches",
	RunModule: func(m *ModulePass) { walkHot(m, true) },
}

// hotpathMarker is the doc-comment line that opts a function in.
const hotpathMarker = "simlint:hotpath"

func isHotpathAnnotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if markerText(c) == hotpathMarker {
			return true
		}
	}
	return false
}

// hotSet is what one walk of the hot set saw, by file:line: the hot
// function each line of a hot body belongs to, and every line the walk
// flagged (audited or not) or exempted under panic. Escapecheck reads
// the compiler's heap sites against it.
type hotSet struct {
	owner map[string]string
	seen  map[string]bool
}

// walkHot walks every function of the hot set once, reporting its
// findings when emit is set. Audited call lines prune the set.
func walkHot(m *ModulePass, emit bool) *hotSet {
	hs := &hotSet{owner: map[string]string{}, seen: map[string]bool{}}
	for n, hc := range hotReachable(m) {
		h := &hotpathWalk{p: m.Pass(n.pkg), set: hs, emit: emit}
		if !n.hot {
			h.chain = "hot call chain " + hc.render() + ": "
		}
		start, end := h.p.Fset.Position(n.decl.Pos()), h.p.Fset.Position(n.decl.End())
		for l := start.Line; l <= end.Line; l++ {
			hs.owner[lineKey(start.Filename, l)] = n.name()
		}
		h.allowedAppends = recycledAppends(h.p, n.decl.Body)
		h.walk(n.decl.Body)
	}
	return hs
}

type hotpathWalk struct {
	p              *Pass
	set            *hotSet
	emit           bool
	allowedAppends map[*ast.CallExpr]bool
	// chain prefixes every finding in a reached function: the
	// rendered call chain from the annotated root.
	chain string
}

// see marks the lines from pos to end seen.
func (h *hotpathWalk) see(pos, end token.Pos) {
	from, to := h.p.Fset.Position(pos), h.p.Fset.Position(end)
	for l := from.Line; l <= to.Line; l++ {
		h.set.seen[lineKey(from.Filename, l)] = true
	}
}

// report sees the finding's line and reports it, chain first, when
// the walk emits.
func (h *hotpathWalk) report(pos token.Pos, format string, args ...any) {
	h.see(pos, pos)
	if h.emit {
		h.p.Reportf(pos, h.chain+format, args...)
	}
}

// walk inspects the body, skipping panic arguments and the interiors
// of function literals (the literal itself is the allocation; its body
// runs elsewhere).
func (h *hotpathWalk) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			h.report(x.Pos(), "closure allocated in hot path; bind the callback once at construction")
			return false
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := x.X.(*ast.CompositeLit); ok {
					h.report(x.Pos(), "&composite literal allocates in hot path; recycle from a pool")
					return false
				}
			}
		case *ast.CompositeLit:
			if t := h.p.TypeOf(x); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					h.report(x.Pos(), "%s literal allocates in hot path", typeKind(t))
				}
			}
		case *ast.CallExpr:
			return h.call(x)
		}
		return true
	})
}

// call checks one call expression; it returns false to prune the walk
// below panic calls.
func (h *hotpathWalk) call(call *ast.CallExpr) bool {
	if id, ok := call.Fun.(*ast.Ident); ok && isBuiltin(h.p.Info, id) {
		switch id.Name {
		case "panic":
			h.see(call.Pos(), call.End()) // dying: allocations on the way out are moot
			return false
		case "make":
			h.report(call.Pos(), "make allocates in hot path")
		case "new":
			h.report(call.Pos(), "new allocates in hot path")
		case "append":
			if !h.allowedAppends[call] && !isRecycledAppendArg(call) {
				h.report(call.Pos(), "append may grow a fresh slice in hot path; append to a recycled buffer (buf[:0] or a persistent field)")
			}
		}
		return true
	}
	// Explicit conversion T(x) to an interface type.
	if tv, ok := h.p.Info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			h.boxing(call.Args[0], tv.Type)
		}
		return true
	}
	// fmt is never allocation-free.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if obj := h.p.ObjectOf(sel.Sel); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			if _, isMethod := h.p.Info.Selections[sel]; !isMethod {
				h.report(call.Pos(), "fmt.%s allocates in hot path", obj.Name())
				return true
			}
		}
	}
	// Implicit boxing: non-pointer arguments to interface parameters.
	sig, ok := h.p.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return true
	}
	for i, arg := range call.Args {
		pt := paramType(sig, i)
		if pt == nil {
			break
		}
		if i == len(call.Args)-1 && call.Ellipsis.IsValid() {
			break // xs... passes the slice through, no per-element boxing
		}
		if types.IsInterface(pt) {
			h.boxing(arg, pt)
		}
	}
	return true
}

// boxing reports arg if converting it to the interface type iface
// allocates: every value type does, single-word reference types
// (pointers, chans, maps, funcs) and constants do not.
func (h *hotpathWalk) boxing(arg ast.Expr, iface types.Type) {
	tv, ok := h.p.Info.Types[arg]
	if !ok || tv.Type == nil {
		return
	}
	if tv.Value != nil || tv.IsNil() {
		return // constants and nil never hit the allocator here
	}
	t := tv.Type
	if types.IsInterface(t) {
		return // interface-to-interface: no new box
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return // one-word values ride in the iface data word
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UnsafePointer {
		return
	}
	h.report(arg.Pos(), "converting %s to interface %s allocates in hot path; pass a pointer or avoid the interface", t, iface)
}

// paramType returns the effective type of argument i (expanding the
// variadic tail), or nil when i is out of range for a non-variadic
// signature.
func paramType(sig *types.Signature, i int) types.Type {
	n := sig.Params().Len()
	if sig.Variadic() {
		if i >= n-1 {
			return sig.Params().At(n - 1).Type().(*types.Slice).Elem()
		}
		return sig.Params().At(i).Type()
	}
	if i >= n {
		return nil
	}
	return sig.Params().At(i).Type()
}

// isRecycledAppendArg reports appends whose base is already a reslice:
// append(buf[:0], ...) writes into retained capacity.
func isRecycledAppendArg(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	_, ok := call.Args[0].(*ast.SliceExpr)
	return ok
}

// recycledAppends pre-scans a function body for `x = append(x, ...)`
// growth of persistent state: x a field selector, or a local whose
// initialization reslices an existing buffer. Those appends retain
// capacity across calls (amortized growth), so they are allowed.
func recycledAppends(p *Pass, body *ast.BlockStmt) map[*ast.CallExpr]bool {
	resliced := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			if _, ok := rhs.(*ast.SliceExpr); !ok {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := p.ObjectOf(id); obj != nil {
					resliced[obj] = true
				}
			}
		}
		return true
	})

	allowed := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			fn, ok := call.Fun.(*ast.Ident)
			if !ok || fn.Name != "append" || !isBuiltin(p.Info, fn) || len(call.Args) == 0 {
				continue
			}
			if !sameExpr(p, as.Lhs[i], call.Args[0]) {
				continue
			}
			switch tgt := as.Lhs[i].(type) {
			case *ast.SelectorExpr:
				allowed[call] = true // persistent field: growth is amortized
			case *ast.Ident:
				if obj := p.ObjectOf(tgt); obj != nil && resliced[obj] {
					allowed[call] = true // local view of a recycled buffer
				}
			}
		}
		return true
	})
	return allowed
}

// sameExpr reports whether two expressions are the same ident/selector
// path (x, x.f, x.f.g).
func sameExpr(p *Pass, a, b ast.Expr) bool {
	switch ax := a.(type) {
	case *ast.Ident:
		bx, ok := b.(*ast.Ident)
		return ok && p.ObjectOf(ax) != nil && p.ObjectOf(ax) == p.ObjectOf(bx)
	case *ast.SelectorExpr:
		bx, ok := b.(*ast.SelectorExpr)
		return ok && ax.Sel.Name == bx.Sel.Name && sameExpr(p, ax.X, bx.X)
	}
	return false
}

// typeKind names a composite type for messages.
func typeKind(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return t.String()
}

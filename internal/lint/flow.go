package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Shared machinery for the CFG-based analyzers: event extraction over
// tracked objects (a pooled pointer, a once-callback parameter) and a
// forward union-lattice dataflow over the cfgGraph.

// eventKind classifies what one syntactic use of a tracked object does
// to its obligation.
type eventKind int

const (
	evNone    eventKind = iota
	evAcquire           // v := get(...): v now holds a pooled object
	evRelease           // put(v) or v.put(): the object returns to its pool
	evInvoke            // v(...): the tracked callback is called
	evHandoff           // v escapes: argument, return, store, capture —
	// ownership (or the invocation obligation) moves elsewhere
)

// flowEvent is one ordered event within a CFG block.
type flowEvent struct {
	kind eventKind
	obj  types.Object
	pos  token.Pos
}

// funcUnit is one analyzable body: a declaration or a function
// literal. Literals are separate units — a capture inside one is a
// handoff from the enclosing unit's point of view, and obligations
// created inside the literal are checked against the literal's own
// paths.
type funcUnit struct {
	body *ast.BlockStmt
	pos  token.Pos
}

// collectUnits gathers the declared body and every nested function
// literal of a file's declarations.
func collectUnits(f *ast.File) []funcUnit {
	var units []funcUnit
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		ast.Inspect(fd, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				units = append(units, funcUnit{body: x.Body, pos: x.Pos()})
			case *ast.FuncLit:
				units = append(units, funcUnit{body: x.Body, pos: x.Pos()})
			}
			return true
		})
	}
	return units
}

// extractEvents walks one CFG node (a statement or guard expression)
// in source order and emits the events affecting tracked objects.
//
//   - tracked: the objects under analysis in this unit;
//   - getObjs / putObjs: the pool accessors (nil maps for oncedone);
//   - trackCalls: when true, a direct call of a tracked object is an
//     evInvoke (the oncedone case).
//
// Nested function literals are opaque: each tracked object referenced
// anywhere inside one contributes a single evHandoff at the literal
// (the closure now owns the obligation), and nothing below it is
// walked here — the literal body is its own funcUnit.
func extractEvents(p *Pass, node ast.Node, tracked map[types.Object]bool,
	getObjs, putObjs map[types.Object]bool, trackCalls bool) []flowEvent {
	var events []flowEvent
	var walk func(n ast.Node, parent ast.Node)
	emit := func(kind eventKind, obj types.Object, pos token.Pos) {
		events = append(events, flowEvent{kind: kind, obj: obj, pos: pos})
	}

	walk = func(n ast.Node, parent ast.Node) {
		switch x := n.(type) {
		case nil:
			return

		case *ast.FuncLit:
			// One handoff per captured tracked object, at the literal
			// (the closure now owns the obligation). Inspect order is
			// source order, so emission is deterministic.
			captured := map[types.Object]bool{}
			ast.Inspect(x.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := p.ObjectOf(id); obj != nil && tracked[obj] && !captured[obj] {
						captured[obj] = true
						emit(evHandoff, obj, x.Pos())
					}
				}
				return true
			})
			return

		case *ast.AssignStmt:
			// RHS first (evaluation order), then acquisition binding.
			for _, rhs := range x.Rhs {
				walk(rhs, x)
			}
			for _, lhs := range x.Lhs {
				// LHS identifiers are neutral (rebinding), and so is a
				// store into a field of a tracked object — v.cb = f
				// fills the object in, it does not pass v.cb on; other
				// LHS forms (index exprs, field bases, derefs) may
				// contain value uses and are walked.
				switch l := lhs.(type) {
				case *ast.Ident:
					continue
				case *ast.SelectorExpr:
					if id, ok := ast.Unparen(l.X).(*ast.Ident); ok && tracked[p.ObjectOf(id)] {
						continue
					}
				}
				walk(lhs, x)
			}
			if len(x.Lhs) == len(x.Rhs) {
				for i, rhs := range x.Rhs {
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok || !isAccessorCall(p, call, getObjs) {
						continue
					}
					if id, ok := x.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
						if obj := p.ObjectOf(id); obj != nil {
							emit(evAcquire, obj, rhs.Pos())
						}
					}
				}
			}
			return

		case *ast.CallExpr:
			// panic arguments are dying paths; stay conservative and
			// still walk them (a handoff into panic is moot but
			// harmless to record — the CFG ends the path anyway).
			fun := ast.Unparen(x.Fun)
			// Direct invocation of a tracked callback.
			if id, ok := fun.(*ast.Ident); ok && trackCalls {
				if obj := p.ObjectOf(id); obj != nil && tracked[obj] {
					for _, a := range x.Args {
						walk(a, x)
					}
					emit(evInvoke, obj, x.Pos())
					return
				}
			}
			// put(v) / s.put(v): args that are tracked idents release.
			if isAccessorCall(p, x, putObjs) {
				// v.put() form: the receiver itself releases.
				if sel, ok := fun.(*ast.SelectorExpr); ok {
					if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
						if obj := p.ObjectOf(id); obj != nil && tracked[obj] {
							emit(evRelease, obj, x.Pos())
						}
					}
				}
				for _, a := range x.Args {
					if id, ok := ast.Unparen(a).(*ast.Ident); ok {
						if obj := p.ObjectOf(id); obj != nil && tracked[obj] {
							emit(evRelease, obj, a.Pos())
							continue
						}
					}
					walk(a, x)
				}
				return
			}
			walk(ast.Unparen(x.Fun), x)
			for _, a := range x.Args {
				walk(a, x)
			}
			return

		case *ast.SelectorExpr:
			// v.field reads/writes and v.method() calls mutate or use
			// the object in place — the obligation stays put. But a
			// func-valued selection used as DATA — a method value, or a
			// bound-callback field like the pooled contexts' onDone —
			// carries a reference to v wherever it goes: handoff.
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				if obj := p.ObjectOf(id); obj != nil && tracked[obj] {
					invoked := false
					if pc, ok := parent.(*ast.CallExpr); ok && ast.Unparen(pc.Fun) == x {
						invoked = true
					}
					if !invoked {
						if t := p.TypeOf(x); t != nil {
							if _, isFunc := t.Underlying().(*types.Signature); isFunc {
								emit(evHandoff, obj, x.Pos())
							}
						}
					}
					return
				}
			}
			walk(x.X, x)
			return

		case *ast.BinaryExpr:
			// Comparing or doing arithmetic on the tracked value
			// itself never moves ownership, but a call buried in an
			// operand still can.
			walkNeutralIdent(p, tracked, x.X, x, walk)
			walkNeutralIdent(p, tracked, x.Y, x, walk)
			return

		case *ast.IndexExpr:
			// xs[v] and v[i] read in place.
			walkNeutralIdent(p, tracked, x.X, x, walk)
			walkNeutralIdent(p, tracked, x.Index, x, walk)
			return

		case *ast.StarExpr:
			// *v = ... mutates the pointed-to object in place.
			walkNeutralIdent(p, tracked, x.X, x, walk)
			return

		case *ast.Ident:
			if obj := p.ObjectOf(x); obj != nil && tracked[obj] {
				emit(evHandoff, obj, x.Pos())
			}
			return

		default:
			// Generic traversal: visit children with this node as
			// parent context.
			for _, child := range childrenOf(n) {
				walk(child, n)
			}
			return
		}
	}
	walk(node, nil)
	return events
}

// walkNeutralIdent walks e unless it is a bare tracked identifier —
// the neutral read positions (comparison operands, indexes, derefs).
func walkNeutralIdent(p *Pass, tracked map[types.Object]bool, e ast.Expr, parent ast.Node, walk func(ast.Node, ast.Node)) {
	if e == nil {
		return
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := p.ObjectOf(id); obj != nil && tracked[obj] {
			return
		}
	}
	walk(e, parent)
}

// childrenOf lists a node's immediate children via one-level Inspect.
func childrenOf(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(m ast.Node) bool {
		if first {
			first = false
			return true
		}
		if m != nil {
			out = append(out, m)
		}
		return false
	})
	return out
}

// isAccessorCall reports whether the call's callee resolves to one of
// the named pool accessor objects. A method of a generic pool is
// declared once and called through its instantiations, so the callee is
// compared by its generic origin.
func isAccessorCall(p *Pass, call *ast.CallExpr, objs map[types.Object]bool) bool {
	if len(objs) == 0 {
		return false
	}
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	if fn, ok := p.ObjectOf(id).(*types.Func); ok {
		return objs[origin(fn)]
	}
	return false
}

// --- dataflow ---------------------------------------------------------

// flowState is a union lattice over small per-object state sets,
// keyed by tracked object.
type flowState map[types.Object]uint8

func (st flowState) clone() flowState {
	out := make(flowState, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

// joinInto unions src into dst, reporting whether dst changed.
func (st flowState) joinInto(dst flowState) bool {
	changed := false
	for k, v := range st {
		if dst[k]|v != dst[k] {
			dst[k] |= v
			changed = true
		}
	}
	return changed
}

// blockEvents caches the extracted events of each CFG block.
type blockEvents map[*cfgBlock][]flowEvent

// extractBlockEvents runs extractEvents over every node of every
// block.
func extractBlockEvents(p *Pass, g *cfgGraph, tracked map[types.Object]bool,
	getObjs, putObjs map[types.Object]bool, trackCalls bool) blockEvents {
	be := blockEvents{}
	for _, blk := range g.blocks {
		var evs []flowEvent
		for _, n := range blk.nodes {
			evs = append(evs, extractEvents(p, n, tracked, getObjs, putObjs, trackCalls)...)
		}
		if len(evs) > 0 {
			be[blk] = evs
		}
	}
	return be
}

// forwardFlow runs a forward union dataflow from entry. transfer maps
// an entry state through one block's events to its exit state; it may
// report findings (idempotently — it can run several times per block
// as the fixpoint grows).
func forwardFlow(g *cfgGraph, entry flowState, transfer func(blk *cfgBlock, in flowState) flowState) map[*cfgBlock]flowState {
	in := map[*cfgBlock]flowState{g.entry: entry}
	work := []*cfgBlock{g.entry}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		out := transfer(blk, in[blk].clone())
		for _, succ := range blk.succs {
			dst, ok := in[succ]
			if !ok {
				dst = flowState{}
				in[succ] = dst
			}
			if out.joinInto(dst) || !ok {
				work = append(work, succ)
			}
		}
	}
	return in
}

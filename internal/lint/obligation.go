package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Obligation checks the two things in this code base that must happen
// exactly once on every path: returning a pooled object to its pool,
// and completing a callback. Two markers create the obligation.
//
// A pool type declares its accessors in its doc comment:
//
//	//simlint:pool get=Get put=Put
//	type Pool[T any] struct { ... }
//
// get and put name methods of the annotated type or, when it has none
// of that name, functions or methods of its package (the engine's free
// list of int32 event slots is annotated on the slot type and accessed
// through methods of the Engine). Accessors are resolved over the whole
// module, and a call is matched through the generic origin of its
// callee, so the one marker on sim.Pool covers every nc.fillPool.Get()
// of every instantiation in every package — of the snapshot: a run over
// a package subset that leaves out the package carrying a marker has no
// accessors to follow. Every local bound from a get holds an
// obligation from there on.
//
// A function taking a `done func(...)`-style parameter opts in
// through its doc comment:
//
//	//simlint:once done
//	func (s *Scheduler) Submit(fn Op, done func(error)) { ... }
//
// The bare form `//simlint:once` is accepted when the function has
// exactly one func-typed parameter; otherwise naming is mandatory and
// an ambiguous bare marker is itself a finding. The parameter holds an
// obligation from entry.
//
// A put of the object or an invocation of the callback discharges the
// obligation. Passing it on — as an argument, stored into a field,
// global, slice or map, returned, or captured by a function literal —
// hands it off: the new owner (admit, the engine, a fabric send)
// discharges it, and this function's paths are satisfied. Three
// findings follow, over every control-flow path, error paths included:
//
//   - a path to return that still holds the obligation: a leaked
//     object (reported at the get) or a caller that waits forever on a
//     completion that never fires (at the function);
//   - a second discharge on one path: the double put, or the double
//     completion that releases a token twice and overcommits the
//     resource it guards (the over-grant);
//   - a get into a local that may still hold the previous one.
//
// Handoff is deliberately generous, so the analysis under-reports
// rather than second-guesses ownership conventions; what it never
// misses is the early `return err` that forgets the obligation. A
// handoff followed by a local discharge is not flagged, and an object
// that arrives as a parameter holds no obligation here, so a double
// put of one is not seen. Reading or writing the object's fields,
// indexing with or into it, and comparing it are neutral. Paths that
// end in panic are exempt (the process is dying). A function literal
// is checked for the objects it gets, never for what it captures: how
// often a closure runs is not visible here. Intentional exceptions
// carry an audited `//simlint:allow obligation (reason)`.
var Obligation = &Analyzer{
	Name:      "obligation",
	Doc:       "pooled object or once-callback not discharged exactly once on every path",
	RunModule: runObligation,
}

var (
	// poolMarkerRe parses `simlint:pool get=F put=G`.
	poolMarkerRe = regexp.MustCompile(`^simlint:pool\s+get=(\w+)\s+put=(\w+)\s*$`)
	// onceMarkerRe parses `simlint:once [param]`.
	onceMarkerRe = regexp.MustCompile(`^simlint:once(?:\s+(\w+))?\s*$`)
)

// Per-object obligation states (bitmask lattice).
const (
	obHeld       uint8 = 1 << iota // obligation outstanding
	obDischarged                   // put or invoked on this path
	obHanded                       // obligation moved elsewhere
)

func runObligation(m *ModulePass) {
	acc := accessors{get: map[types.Object]bool{}, put: map[types.Object]bool{}}
	for _, pkg := range m.Snap.Pkgs {
		resolveAccessors(m.Pass(pkg), acc)
	}
	for _, pkg := range m.Snap.Pkgs {
		p := m.Pass(pkg)
		for _, f := range p.Files {
			for _, unit := range collectUnits(f) {
				checkUnit(p, unit, acc)
			}
		}
	}
}

// markerLines yields the //simlint: comment lines of a doc comment
// that start with prefix, trimmed.
func markerLines(prefix string, docs ...*ast.CommentGroup) []*ast.Comment {
	var out []*ast.Comment
	for _, cg := range docs {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if strings.HasPrefix(markerText(c), prefix) {
				out = append(out, c)
			}
		}
	}
	return out
}

// resolveAccessors adds the function objects the package's pool
// markers name to acc: the annotated type's own method of that name,
// or else every function or method of the package with it. Malformed
// markers and markers that resolve to nothing are reported.
func resolveAccessors(p *Pass, acc accessors) {
	byName := map[string][]types.Object{}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if obj := p.ObjectOf(fd.Name); obj != nil {
					byName[fd.Name.Name] = append(byName[fd.Name.Name], obj)
				}
			}
		}
	}
	resolve := func(typeName, name string) []types.Object {
		if tn, ok := p.Pkg.Scope().Lookup(typeName).(*types.TypeName); ok {
			m, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, p.Pkg, name)
			if fn, ok := m.(*types.Func); ok {
				return []types.Object{fn}
			}
		}
		return byName[name]
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				for _, c := range markerLines("simlint:pool", gd.Doc, ts.Doc) {
					m := poolMarkerRe.FindStringSubmatch(markerText(c))
					if m == nil {
						p.Reportf(c.Pos(), "malformed pool marker: want //simlint:pool get=F put=G")
						continue
					}
					gets, puts := resolve(ts.Name.Name, m[1]), resolve(ts.Name.Name, m[2])
					if len(gets) == 0 || len(puts) == 0 {
						p.Reportf(ts.Pos(), "pool %s: accessor get=%s put=%s not found in this package",
							ts.Name.Name, m[1], m[2])
						continue
					}
					for _, o := range gets {
						acc.get[o] = true
					}
					for _, o := range puts {
						acc.put[o] = true
					}
				}
			}
		}
	}
}

// onceParam resolves the parameter a //simlint:once marker of fd
// names (or its sole func-typed one), or nil. Marker-hygiene findings
// anchor on the function name, not the comment — that is the
// declaration being mis-marked, and it gives suppressions a code line
// to sit on.
func onceParam(p *Pass, fd *ast.FuncDecl) types.Object {
	marks := markerLines("simlint:once", fd.Doc)
	if len(marks) == 0 {
		return nil
	}
	m := onceMarkerRe.FindStringSubmatch(markerText(marks[0]))
	if m == nil {
		p.Reportf(fd.Name.Pos(), "malformed once marker: want //simlint:once [param]")
		return nil
	}
	name := m[1]
	var funcParams []types.Object
	for _, field := range fd.Type.Params.List {
		for _, id := range field.Names {
			obj := p.ObjectOf(id)
			if obj == nil || name != "" && id.Name != name {
				continue
			}
			_, isFunc := obj.Type().Underlying().(*types.Signature)
			if name != "" && !isFunc {
				p.Reportf(fd.Name.Pos(), "once parameter %s of %s is not func-typed", name, fd.Name.Name)
				return nil
			}
			if isFunc {
				funcParams = append(funcParams, obj)
			}
		}
	}
	switch {
	case name != "" && len(funcParams) == 0:
		p.Reportf(fd.Name.Pos(), "once parameter %s not found on %s", name, fd.Name.Name)
	case name == "" && len(funcParams) != 1:
		p.Reportf(fd.Name.Pos(), "bare //simlint:once needs exactly one func-typed parameter on %s (found %d); name one", fd.Name.Name, len(funcParams))
	default:
		return funcParams[0]
	}
	return nil
}

// checkUnit runs the obligation dataflow over one function body: the
// locals it binds from a get, and, for a declaration, its once
// parameter.
func checkUnit(p *Pass, unit funcUnit, acc accessors) {
	tracked := map[types.Object]bool{}
	acquired := map[types.Object]token.Pos{} // first get of each pooled local
	entry := flowState{}
	var once types.Object
	if unit.decl != nil {
		if once = onceParam(p, unit.decl); once != nil {
			tracked[once], entry[once] = true, obHeld
		}
	}
	ast.Inspect(unit.body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && fl.Body != unit.body {
			return false // separate unit
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isAccessorCall(p, call, acc.get) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
				if obj := p.ObjectOf(id); obj != nil && !tracked[obj] {
					tracked[obj], acquired[obj] = true, rhs.Pos()
				}
			}
		}
		return true
	})
	if len(tracked) == 0 {
		return
	}

	g := buildCFG(unit.body)
	be := extractBlockEvents(p, g, tracked, acc)

	// The fixpoint may run transfer several times per block; dedupe
	// findings by site.
	reported := map[string]bool{}
	reportOnce := func(key string, pos token.Pos, format string, args ...any) {
		if !reported[key] {
			reported[key] = true
			p.Reportf(pos, format, args...)
		}
	}
	transfer := func(blk *cfgBlock, st flowState) flowState {
		for _, ev := range be[blk] {
			cur := st[ev.obj]
			switch ev.kind {
			case evAcquire:
				if cur&obHeld != 0 {
					reportOnce(fmt.Sprintf("re%d", ev.pos), ev.pos,
						"pooled %s reacquired while a previous acquisition may still be held", ev.obj.Name())
				}
				st[ev.obj] = obHeld
			case evDischarge:
				if cur&obDischarged != 0 {
					format := "pooled %s may be released twice on one path"
					if ev.obj == once {
						format = "callback %s may be invoked a second time here"
					}
					reportOnce(fmt.Sprintf("dbl%d", ev.pos), ev.pos, format, ev.obj.Name())
				}
				st[ev.obj] = cur&obHanded | obDischarged
			case evHandoff:
				if cur != 0 {
					st[ev.obj] = cur&obDischarged | obHanded
				}
			}
		}
		return st
	}
	exit, ok := forwardFlow(g, entry, transfer)[g.exit]
	if !ok {
		return // no path reaches a return (infinite loop / always panics)
	}
	for obj, bits := range exit {
		switch {
		case bits&obHeld == 0:
		case obj == once:
			reportOnce("leak", unit.decl.Name.Pos(),
				"callback %s is not invoked on some path to return: the caller waits forever", obj.Name())
		default:
			reportOnce("leak"+obj.Name(), acquired[obj],
				"pooled %s acquired here may leak: some path reaches return without put or handoff", obj.Name())
		}
	}
}

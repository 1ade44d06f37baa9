package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Poolleak checks get/put pairing for the simulator's object pools.
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
// accessors to follow. From then on,
// every local bound from a get call must, on EVERY control-flow path
// to function exit — error paths included — either be released
// through put or explicitly handed off: passed to another call,
// stored into a field, global, slice or map, returned, or captured by
// a function literal. A path on which the acquired object is simply
// dropped is a leak finding at the acquisition site; the PR 3/5/8 bug
// class (isp double-grant, failover-context reuse) adds the dual
// check: putting the same object twice on one path is a finding at
// the second put.
//
// Handoff is deliberately generous — passing the object to any
// function transfers the obligation, because the callee (admit, the
// engine, a fabric send) now owns completion. The analysis therefore
// under-reports rather than second-guesses ownership conventions;
// what it never misses is the early `return err` that forgets the
// object entirely. Reading or writing the object's fields, indexing
// with or into it, and comparing it are neutral: the obligation stays
// where it is. Paths that end in panic are exempt (the process is
// dying). Intentional exceptions carry an audited
// `//simlint:allow poolleak (reason)` on the acquisition or put line.
var Poolleak = &Analyzer{
	Name:      "poolleak",
	Doc:       "pooled object acquired but neither released nor handed off on some path",
	RunModule: runPoolleak,
}

// poolMarkerRe parses `simlint:pool get=F put=G`.
var poolMarkerRe = regexp.MustCompile(`^simlint:pool\s+get=(\w+)\s+put=(\w+)\s*$`)

// poolDecl is one annotated pool type with its resolved accessors.
type poolDecl struct {
	typeName string
	pos      token.Pos // the type's name, where an unresolved marker is reported
	getName  string
	putName  string
}

// per-object pool states (bitmask lattice).
const (
	psHeld     uint8 = 1 << iota // acquired, obligation outstanding
	psReleased                   // returned to the pool via put
	psHanded                     // ownership moved elsewhere
)

func runPoolleak(m *ModulePass) {
	getObjs, putObjs := map[types.Object]bool{}, map[types.Object]bool{}
	for _, pkg := range m.Snap.Pkgs {
		p := m.Pass(pkg)
		resolveAccessors(p, poolDecls(p), getObjs, putObjs)
	}
	if len(getObjs) == 0 {
		return
	}
	for _, pkg := range m.Snap.Pkgs {
		p := m.Pass(pkg)
		for _, f := range p.Files {
			for _, unit := range collectUnits(f) {
				checkPoolUnit(p, unit, getObjs, putObjs)
			}
		}
	}
}

// poolDecls parses the //simlint:pool markers of the package's type
// declarations, reporting malformed ones.
func poolDecls(p *Pass) []poolDecl {
	var pools []poolDecl
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
				for _, cg := range []*ast.CommentGroup{gd.Doc, ts.Doc} {
					if cg == nil {
						continue
					}
					for _, c := range cg.List {
						text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
						if !strings.HasPrefix(text, "simlint:pool") {
							continue
						}
						m := poolMarkerRe.FindStringSubmatch(text)
						if m == nil {
							p.Reportf(c.Pos(), "malformed pool marker: want //simlint:pool get=F put=G")
							continue
						}
						pools = append(pools, poolDecl{typeName: ts.Name.Name, pos: ts.Pos(), getName: m[1], putName: m[2]})
					}
				}
			}
		}
	}
	return pools
}

// resolveAccessors adds the function objects the package's pool markers
// name to getObjs and putObjs: the annotated type's own method of that
// name, or else every function or method of the package with it.
// Markers that resolve to nothing are reported.
func resolveAccessors(p *Pass, pools []poolDecl, getObjs, putObjs map[types.Object]bool) {
	if len(pools) == 0 {
		return
	}
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
	for _, pool := range pools {
		gets, puts := resolve(pool.typeName, pool.getName), resolve(pool.typeName, pool.putName)
		if len(gets) == 0 || len(puts) == 0 {
			p.Reportf(pool.pos, "pool %s: accessor get=%s put=%s not found in this package",
				pool.typeName, pool.getName, pool.putName)
			continue
		}
		for _, o := range gets {
			getObjs[o] = true
		}
		for _, o := range puts {
			putObjs[o] = true
		}
	}
}

// checkPoolUnit runs the leak dataflow over one function body.
func checkPoolUnit(p *Pass, unit funcUnit, getObjs, putObjs map[types.Object]bool) {
	// Cheap pre-scan: any acquisition at all?
	tracked := map[types.Object]bool{}
	acquirePos := map[types.Object]ast.Node{}
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
			if !ok || !isAccessorCall(p, call, getObjs) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
				if obj := p.ObjectOf(id); obj != nil {
					tracked[obj] = true
					if acquirePos[obj] == nil {
						acquirePos[obj] = rhs
					}
				}
			}
		}
		return true
	})
	if len(tracked) == 0 {
		return
	}

	g := buildCFG(unit.body)
	be := extractBlockEvents(p, g, tracked, getObjs, putObjs, false)

	// The fixpoint may run transfer several times per block; dedupe
	// findings by site.
	reported := map[string]bool{}
	reportOnce := func(key string, pos token.Pos, format string, args ...any) {
		if reported[key] {
			return
		}
		reported[key] = true
		p.Reportf(pos, format, args...)
	}

	transfer := func(blk *cfgBlock, st flowState) flowState {
		for _, ev := range be[blk] {
			cur := st[ev.obj]
			switch ev.kind {
			case evAcquire:
				if cur&psHeld != 0 {
					reportOnce(fmt.Sprintf("re%d", ev.pos), ev.pos,
						"pooled %s reacquired while a previous acquisition may still be held", ev.obj.Name())
				}
				st[ev.obj] = psHeld
			case evRelease:
				if cur&psReleased != 0 {
					reportOnce(fmt.Sprintf("dbl%d", ev.pos), ev.pos,
						"pooled %s may be released twice on one path", ev.obj.Name())
				}
				st[ev.obj] = psReleased
			case evHandoff:
				if cur != 0 {
					st[ev.obj] = psHanded
				}
			}
		}
		return st
	}
	in := forwardFlow(g, flowState{}, transfer)

	// Exit check: HELD possible at exit = a leak on some path.
	exitState, ok := in[g.exit]
	if !ok {
		return // no path reaches a return (infinite loop / always panics)
	}
	for obj, bits := range exitState {
		if bits&psHeld != 0 {
			if site := acquirePos[obj]; site != nil {
				reportOnce("leak"+obj.Name(), site.Pos(),
					"pooled %s acquired here may leak: some path reaches return without put or handoff", obj.Name())
			}
		}
	}
}

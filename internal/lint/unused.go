package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Unused keeps test-only code out of the module: an exported
// package-level name, or an exported method of an exported type, that
// no non-test code references is a finding. Test files never reach the
// loader, so a name only a _test.go file uses is reported like one
// nobody uses.
//
// A reference is any use of the object outside its own declaration and
// outside a method receiver, in any package of the snapshot — its own
// included — or in a module nested under the snapshot's root (a
// directory with its own go.mod, such as bench/), which is loaded
// beside the snapshot so its uses resolve to the same objects. A
// method that satisfies an interface appearing anywhere in that code
// is reached through the interface and is not a finding, nor are
// String and Error, which fmt and errors call through interfaces the
// module never names.
//
// A name kept on purpose takes an audited
//
//	//simlint:allow unused (reason)
//
// on its declaration line or the line above: a checker or reference
// model, a test-support package, a capability a test or ablation runs.
// The check needs the whole module: on a package subset every name the
// other packages use would be a finding, so there it reports nothing
// and audits none of its directives.
var Unused = &Analyzer{
	Name:      "unused",
	Doc:       "exported name with no reference outside test files",
	RunModule: runUnused,
}

func runUnused(m *ModulePass) {
	if m.Snap.partial {
		delete(m.sink.audit, m.Analyzer.Name)
		return
	}
	u := &unusedRefs{refs: map[types.Object]bool{}, ifaces: map[string][]*types.Interface{},
		seen: map[*types.Interface]bool{}}
	for _, pkg := range m.Snap.Pkgs {
		u.collect(pkg)
	}
	nested, err := m.Snap.nestedModules()
	if err != nil {
		m.sink.diags = append(m.sink.diags, Diagnostic{Pos: token.Position{Filename: m.Snap.Root},
			Check: m.Analyzer.Name, Message: err.Error()})
		return
	}
	for _, pkg := range nested {
		u.collect(pkg)
	}

	for _, pkg := range m.Snap.Pkgs {
		p := m.Pass(pkg)
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // sorted: deterministic order
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if !u.refs[obj] {
				p.Reportf(obj.Pos(), "%s %s has no reference outside test files", objKind(obj), name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				fn := named.Method(i)
				if !fn.Exported() || u.refs[fn] || fn.Name() == "String" || fn.Name() == "Error" || u.satisfies(named, fn.Name()) {
					continue
				}
				p.Reportf(fn.Pos(), "method %s.%s has no reference outside test files", name, fn.Name())
			}
		}
	}
}

// unusedRefs accumulates what the loaded code references: every used
// object, and every interface with methods, indexed by method name.
type unusedRefs struct {
	refs   map[types.Object]bool
	ifaces map[string][]*types.Interface
	seen   map[*types.Interface]bool
}

// collect records the references and interfaces of one package.
func (u *unusedRefs) collect(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				var recv *ast.Ident
				if d.Recv != nil && len(d.Recv.List) == 1 {
					recv = recvTypeIdent(d.Recv.List[0].Type)
				}
				u.uses(pkg, d, pkg.Info.Defs[d.Name], recv)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					var self types.Object
					if ts, ok := spec.(*ast.TypeSpec); ok {
						self = pkg.Info.Defs[ts.Name]
					}
					u.uses(pkg, spec, self, nil)
				}
			}
		}
	}
	for _, tv := range pkg.Info.Types {
		if sig, ok := tv.Type.(*types.Signature); ok {
			for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					u.addIface(tuple.At(i).Type())
				}
			}
			continue
		}
		u.addIface(tv.Type)
	}
}

// uses marks every object node references, except self (a function's
// recursion, a type's mention of itself) and the receiver type of a
// method, which name the declaration rather than use it.
func (u *unusedRefs) uses(pkg *Package, node ast.Node, self types.Object, recv *ast.Ident) {
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id == recv {
			return true
		}
		obj := pkg.Info.Uses[id]
		switch o := obj.(type) {
		case nil:
			return true
		case *types.Func:
			obj = origin(o)
		case *types.Var:
			obj = o.Origin()
		}
		if obj != self {
			u.refs[obj] = true
		}
		return true
	})
}

// addIface indexes an interface type with methods by its method names.
func (u *unusedRefs) addIface(t types.Type) {
	if t == nil {
		return
	}
	iface, ok := t.Underlying().(*types.Interface)
	if !ok || iface.NumMethods() == 0 || u.seen[iface] {
		return
	}
	u.seen[iface] = true
	for i := 0; i < iface.NumMethods(); i++ {
		name := iface.Method(i).Name()
		u.ifaces[name] = append(u.ifaces[name], iface)
	}
}

// satisfies reports whether named or its pointer implements a recorded
// interface that has a method called method.
func (u *unusedRefs) satisfies(named *types.Named, method string) bool {
	for _, iface := range u.ifaces[method] {
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

// recvTypeIdent is the type name of a method receiver expression: T in
// T, *T, T[P] and *T[P].
func recvTypeIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func objKind(obj types.Object) string {
	switch obj.(type) {
	case *types.Func:
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	default:
		return "var"
	}
}

// nestedModules loads every module nested under the snapshot's root —
// a directory below it with its own go.mod, which the root's ./...
// does not reach — through the snapshot's importer, so its imports of
// the snapshot's packages resolve to the snapshot's objects. A
// synthetic snapshot has none.
func (s *Snapshot) nestedModules() ([]*Package, error) {
	if s.imp == nil {
		return nil, nil
	}
	var pkgs []*Package
	err := filepath.WalkDir(s.Root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == s.Root {
			return err
		}
		if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err != nil {
			return nil
		}
		loaded, err := load(path, nil, s.imp)
		if err != nil {
			return fmt.Errorf("loading the module nested at %s: %v", path, err)
		}
		pkgs = append(pkgs, loaded...)
		return filepath.SkipDir
	})
	return pkgs, err
}

// origin normalizes generic instantiations back to their declaration.
func origin(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

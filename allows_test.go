package repro_test

// An audited `//simlint:allow unused (reason)` keeps an exported name
// that only tests use. simlint checks that the directive suppresses a
// finding, but not that its reason still holds; the least a reason
// needs is something that names the declaration. TestUnusedAllowsNamed
// parses every Go file of the module and of bench/, tests included,
// and fails for an allowed declaration whose name appears nowhere but
// in its own declaration.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const allowUnused = "//simlint:allow unused"

// goFile is one parsed file and the import path of its directory.
type goFile struct {
	f    *ast.File
	path string // import path of the file's directory ("repro/internal/core")
}

// allowedDecl is a declaration carrying an unused allow.
type allowedDecl struct {
	name string
	recv string   // a method's receiver type; "" for a package-level name
	path string   // import path of the declaring package
	span ast.Node // the declaration: references inside it do not count
	file *ast.File
	at   token.Position
}

func TestUnusedAllowsNamed(t *testing.T) {
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, goFile{f: f, path: filepath.ToSlash(filepath.Join("repro", filepath.Dir(p)))})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var allowed []allowedDecl
	for _, gf := range files {
		allowed = append(allowed, allowedIn(fset, gf)...)
	}
	if len(allowed) == 0 {
		t.Fatal("no //simlint:allow unused found: the walk saw no code")
	}
	for _, a := range allowed {
		if !named(files, a) {
			t.Errorf("%s: %s has %s but nothing names it outside its declaration", a.at, a.qualified(), allowUnused)
		}
	}
}

// qualified names the declaration as package.Name, or as
// package.Type.Method for a method.
func (a allowedDecl) qualified() string {
	name := a.name
	if a.recv != "" {
		name = a.recv + "." + name
	}
	return a.path[strings.LastIndex(a.path, "/")+1:] + "." + name
}

// allowedIn returns the declarations of gf that an unused allow sits
// on: on the line of the declared name or the line above.
func allowedIn(fset *token.FileSet, gf goFile) []allowedDecl {
	lines := map[int]bool{}
	for _, cg := range gf.f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, allowUnused) {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	if len(lines) == 0 {
		return nil
	}
	var out []allowedDecl
	add := func(id *ast.Ident, span ast.Node, recv string) {
		if l := fset.Position(id.Pos()).Line; lines[l] || lines[l-1] {
			out = append(out, allowedDecl{name: id.Name, recv: recv, path: gf.path, span: span,
				file: gf.f, at: fset.Position(id.Pos())})
		}
	}
	for _, d := range gf.f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			recv := ""
			if d.Recv != nil {
				recv = receiverType(d.Recv.List[0].Type)
			}
			add(d.Name, d, recv)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name, s, "")
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, s, "")
					}
				}
			}
		}
	}
	return out
}

// receiverType is the type name of a method receiver: T of T, *T, T[P]
// or *T[P].
func receiverType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverType(e.X)
	case *ast.IndexExpr:
		return receiverType(e.X)
	case *ast.IndexListExpr:
		return receiverType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// named reports whether anything outside a's declaration names it: for
// a method, a selector x.Name whose x is not an imported package; for a
// package-level name, an identifier in a file of its own directory or
// a selector qualified by an import of its package.
func named(files []goFile, a allowedDecl) bool {
	for _, gf := range files {
		imports := map[string]string{} // local name -> import path
		for _, im := range gf.f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			local := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = p
		}
		samePkg := gf.path == a.path
		found := false
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			if found || n == nil || gf.f == a.file && n == a.span {
				return false
			}
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if n.Sel.Name == a.name {
					pkg, isImport := "", false
					if x, ok := n.X.(*ast.Ident); ok {
						pkg, isImport = imports[x.Name]
					}
					if a.recv != "" {
						found = !isImport
					} else {
						found = isImport && pkg == a.path
					}
				}
				ast.Inspect(n.X, visit) // n.Sel names a field, a method or another package's name
				return false
			case *ast.Ident:
				found = a.recv == "" && samePkg && n.Name == a.name
			}
			return true
		}
		ast.Inspect(gf.f, visit)
		if found {
			return true
		}
	}
	return false
}

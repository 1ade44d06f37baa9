package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	RelPath    string // import path relative to the module ("" prefix stripped)
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listedPkg mirrors the `go list -json` fields the loader needs.
type listedPkg struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	Imports    []string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// goList resolves patterns to packages via the go command, which is
// the only component that understands module-aware import paths. It
// asks for listedPkg's fields alone, which spares the go command half
// its work.
func goList(root string, patterns []string) ([]*listedPkg, error) {
	args := append([]string{"list", "-json=Dir,ImportPath,Name,GoFiles,Imports,Module,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// stdFset and stdImporter are shared by every load of the process:
// the standard library is type-checked from source once, and every
// package any load parses is positioned in the one file set. Loads run
// one at a time (simlint and its tests load from one goroutine).
var (
	stdFset     = token.NewFileSet()
	stdImporter = importer.ForCompiler(stdFset, "source", nil).(types.ImporterFrom)
)

// chainImporter resolves module-local imports from the packages its
// loads have type-checked and everything else (the standard library)
// from stdImporter, so a load needs no compiled export data — it works
// on a bare checkout with only the go toolchain.
type chainImporter map[string]*types.Package

func (c chainImporter) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, "", 0)
}

func (c chainImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := c[path]; ok {
		return p, nil
	}
	return stdImporter.ImportFrom(path, dir, mode)
}

// load lists, parses and type-checks every package matching patterns
// in the module rooted at root, in dependency order, and returns the
// ones inside the module. imp keeps every package it has
// type-checked: a module loaded later through the same importer (a
// nested module that imports this one) refers to the very objects the
// first load made.
func load(root string, patterns []string, imp chainImporter) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	listed, err := goList(absRoot, patterns)
	if err != nil {
		return nil, err
	}

	byPath := make(map[string]*listedPkg, len(listed))
	for _, p := range listed {
		byPath[p.ImportPath] = p
	}
	// Topological order over module-local imports, so each package's
	// dependencies are in the importer before it type-checks.
	var order []*listedPkg
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(p *listedPkg) error
	visit = func(p *listedPkg) error {
		switch state[p.ImportPath] {
		case 1:
			return fmt.Errorf("lint: import cycle through %s", p.ImportPath)
		case 2:
			return nil
		}
		state[p.ImportPath] = 1
		for _, imp := range p.Imports {
			if dep, ok := byPath[imp]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[p.ImportPath] = 2
		order = append(order, p)
		return nil
	}
	for _, p := range listed {
		if err := visit(p); err != nil {
			return nil, err
		}
	}

	var out []*Package
	for _, lp := range order {
		pkg := &Package{ImportPath: lp.ImportPath, Dir: lp.Dir}
		for _, name := range lp.GoFiles {
			if err := pkg.parse(filepath.Join(lp.Dir, name)); err != nil {
				return nil, err
			}
		}
		if err := imp.check(pkg); err != nil {
			return nil, err
		}
		if lp.Module != nil {
			pkg.RelPath = strings.TrimPrefix(strings.TrimPrefix(lp.ImportPath, lp.Module.Path), "/")
			out = append(out, pkg)
		}
	}
	return out, nil
}

// LoadFixture loads a package tree that go list does not see (a
// testdata fixture) as if it sat at relPath in the module modPath: dir
// is the package at relPath, and each subdirectory of dir one more, at
// relPath plus its name, which dir may import. The module packages the
// tree imports are loaded through go list and come first in the
// snapshot, then the subdirectories in name order, then dir.
func LoadFixture(dir, modPath, relPath string) (*Snapshot, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var fixtures []*Package
	for _, e := range entries { // ReadDir sorts by name
		if e.IsDir() {
			fixtures = append(fixtures, &Package{Dir: filepath.Join(dir, e.Name()), RelPath: relPath + "/" + e.Name()})
		}
	}
	fixtures = append(fixtures, &Package{Dir: dir, RelPath: relPath})
	var deps []string
	for _, p := range fixtures {
		p.ImportPath = modPath + "/" + p.RelPath
		names, _ := filepath.Glob(filepath.Join(p.Dir, "*.go")) // the pattern is well formed
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			if err := p.parse(name); err != nil {
				return nil, err
			}
		}
		for _, f := range p.Files {
			for _, spec := range f.Imports {
				path, _ := strconv.Unquote(spec.Path.Value)
				if strings.HasPrefix(path, modPath+"/") && !strings.HasPrefix(path+"/", modPath+"/"+relPath+"/") {
					deps = append(deps, path)
				}
			}
		}
	}
	imp := chainImporter{}
	var pkgs []*Package
	if len(deps) > 0 {
		if pkgs, err = load(dir, deps, imp); err != nil {
			return nil, err
		}
	}
	for _, p := range fixtures {
		if err := imp.check(p); err != nil {
			return nil, err
		}
	}
	return &Snapshot{Pkgs: append(pkgs, fixtures...)}, nil
}

// parse adds one file to the package. The loaders pass non-test files
// only: test files never reach the analyzers, which is what scopes
// every check to non-test code.
func (p *Package) parse(name string) error {
	f, err := parser.ParseFile(stdFset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	p.Fset = stdFset
	p.Files = append(p.Files, f)
	return nil
}

// check type-checks one parsed package through imp, which then
// resolves it for the packages that import it.
func (imp chainImporter) check(p *Package) error {
	p.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(p.ImportPath, stdFset, p.Files, p.Info)
	if err != nil {
		return fmt.Errorf("lint: type-checking %s: %v", p.ImportPath, err)
	}
	p.Types = tpkg
	imp[p.ImportPath] = tpkg
	return nil
}

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
	"os/exec"
	"path/filepath"
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
// the only component that understands module-aware import paths.
func goList(root string, patterns []string) ([]*listedPkg, error) {
	args := append([]string{"list", "-json"}, patterns...)
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

// chainImporter resolves module-local imports from the load's own
// type-checked cache and everything else (the standard library) from
// the source importer, so the whole load needs no compiled export
// data — it works on a bare checkout with only the go toolchain. The
// files it parses are positioned in fset.
type chainImporter struct {
	fset     *token.FileSet
	local    map[string]*types.Package
	fallback types.ImporterFrom
}

func newChainImporter() *chainImporter {
	fset := token.NewFileSet()
	return &chainImporter{
		fset:     fset,
		local:    map[string]*types.Package{},
		fallback: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, "", 0)
}

func (c *chainImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := c.local[path]; ok {
		return p, nil
	}
	return c.fallback.ImportFrom(path, dir, mode)
}

// Load lists, parses, and type-checks every package matching patterns
// in the module rooted at root, in dependency order, and returns the
// ones inside the module.
func Load(root string, patterns ...string) ([]*Package, error) {
	return load(root, patterns, newChainImporter())
}

// load is Load through imp, which keeps every package it has
// type-checked: a module loaded later through the same importer (a
// nested module that imports this one) refers to the very objects the
// first load made, and the standard library is checked once.
func load(root string, patterns []string, imp *chainImporter) ([]*Package, error) {
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
	// dependencies are in the local cache before it type-checks.
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
		pkg, err := check(imp.fset, imp, lp)
		if err != nil {
			return nil, err
		}
		imp.local[lp.ImportPath] = pkg.Types
		if lp.Module != nil {
			pkg.RelPath = strings.TrimPrefix(strings.TrimPrefix(lp.ImportPath, lp.Module.Path), "/")
			out = append(out, pkg)
		}
	}
	return out, nil
}

// check parses and type-checks one listed package. Only GoFiles are
// loaded: test files never reach the analyzers, which is what scopes
// every check to non-test code.
func check(fset *token.FileSet, imp types.ImporterFrom, lp *listedPkg) (*Package, error) {
	files := make([]*ast.File, 0, len(lp.GoFiles))
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", lp.ImportPath, err)
	}
	return &Package{
		ImportPath: lp.ImportPath,
		Dir:        lp.Dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

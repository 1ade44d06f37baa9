// Package linttest runs simlint analyzers over small fixture packages
// and checks the reported diagnostics against expectations written in
// the fixture source itself, in the style of x/tools' analysistest:
//
//	for k := range m { // want `order-dependent`
//
// A `// want` comment holds one or more quoted regular expressions
// (double quotes or backticks); each must match a distinct diagnostic
// reported on that line as "check: message". Every diagnostic must be
// matched by a want and every want must match a diagnostic, so
// fixtures pin both positives and the absence of false positives.
//
// Fixtures live under testdata/ (invisible to go list) and are
// type-checked as if they lived at a caller-chosen module-relative
// path — which is what the analyzers' scope fences key on. Most import
// only the standard library; the packages of this module a fixture
// imports are loaded by the real loader and analyzed in one snapshot
// with it, which is what a module-wide analyzer sees, and a finding in
// one of them fails the test like any unexpected one. Each
// subdirectory of a fixture is one more fixture package, at relPath
// plus its name, which the fixture may import; its want comments count
// like the fixture's. As in the real loader, _test.go files are never
// loaded.
package linttest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

// sharedFset and sharedImporter are reused across fixture loads so the
// standard library is type-checked from source once per test binary.
var (
	sharedFset     = token.NewFileSet()
	sharedImporter = importer.ForCompiler(sharedFset, "source", nil)
)

// Load parses and type-checks the fixture package in dir as if it
// lived at relPath inside the module, for tests that drive
// module-level entry points (lint.Snapshot, lint.EscapeCheck)
// directly rather than through Run.
//
//simlint:allow unused (test-support package)
func Load(t *testing.T, dir, relPath string) *lint.Package {
	t.Helper()
	pkgs := load(t, dir, relPath)
	return pkgs[len(pkgs)-1]
}

// Diags parses and type-checks the fixture package in dir as if it
// lived at relPath inside the module, runs the analyzers over it, and
// returns the diagnostics (suppressions honored, unused ones reported
// — exactly like a real run).
//
//simlint:allow unused (test-support package)
func Diags(t *testing.T, dir, relPath string, analyzers ...*lint.Analyzer) []lint.Diagnostic {
	t.Helper()
	return lint.Run(load(t, dir, relPath), analyzers)
}

// Run executes the analyzers over the fixture in dir and fails the
// test on any mismatch between diagnostics and // want expectations.
//
//simlint:allow unused (test-support package)
func Run(t *testing.T, dir, relPath string, analyzers ...*lint.Analyzer) {
	t.Helper()
	pkgs := load(t, dir, relPath)
	diags := lint.Run(pkgs, analyzers)

	var wants []want
	for _, p := range pkgs {
		if inFixture(p.ImportPath, relPath) {
			wants = append(wants, collectWants(t, p)...)
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", dir)
	}
	matched := make([]bool, len(wants))
	for _, d := range diags {
		text := d.Check + ": " + d.Message
		ok := false
		for i, w := range wants {
			if !matched[i] && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(text) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}
}

// modulePrefix starts the import path of every package of this module.
const modulePrefix = "repro/"

// depImporter resolves the module packages loaded for a fixture and
// leaves everything else to the shared standard-library importer.
type depImporter map[string]*types.Package

func (d depImporter) Import(path string) (*types.Package, error) {
	if p, ok := d[path]; ok {
		return p, nil
	}
	return sharedImporter.Import(path)
}

// fixtureDir is one fixture package: its directory, the
// module-relative path it is checked at, and its parsed files.
type fixtureDir struct {
	dir, relPath string
	files        []*ast.File
}

// inFixture reports whether an import path names the fixture at
// relPath or one of its subdirectory packages.
func inFixture(path, relPath string) bool {
	return strings.HasPrefix(path+"/", modulePrefix+relPath+"/")
}

// load parses and type-checks one fixture directory. It returns the
// module packages the fixtures import, if any, then the subdirectory
// packages in name order, and the fixture last.
func load(t *testing.T, dir, relPath string) []*lint.Package {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var fixtures []fixtureDir
	for _, e := range entries { // ReadDir sorts by name
		if e.IsDir() {
			fixtures = append(fixtures, fixtureDir{dir: filepath.Join(dir, e.Name()), relPath: relPath + "/" + e.Name()})
		}
	}
	fixtures = append(fixtures, fixtureDir{dir: dir, relPath: relPath})
	var deps []string
	for i := range fixtures {
		fixtures[i].files = parseDir(t, fixtures[i].dir)
		for _, f := range fixtures[i].files {
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(path, modulePrefix) && !inFixture(path, relPath) {
					deps = append(deps, path)
				}
			}
		}
	}
	var pkgs []*lint.Package
	imp := depImporter{}
	if len(deps) > 0 {
		if pkgs, err = lint.Load(".", deps...); err != nil {
			t.Fatal(err)
		}
		for _, p := range pkgs {
			imp[p.ImportPath] = p.Types
		}
	}
	for _, fx := range fixtures {
		p := check(t, fx, imp)
		imp[p.ImportPath] = p.Types
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// parseDir parses the non-test Go files of one fixture directory.
func parseDir(t *testing.T, dir string) []*ast.File {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(sharedFset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}
	return files
}

// check type-checks one parsed fixture package.
func check(t *testing.T, fx fixtureDir, imp depImporter) *lint.Package {
	t.Helper()
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(modulePrefix+fx.relPath, sharedFset, fx.files, info)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", fx.dir, err)
	}
	return &lint.Package{
		ImportPath: modulePrefix + fx.relPath,
		RelPath:    fx.relPath,
		Dir:        fx.dir,
		Fset:       sharedFset,
		Files:      fx.files,
		Types:      tpkg,
		Info:       info,
	}
}

// want is one expectation: a regexp anchored to a file and line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

// wantArgRe extracts the quoted regexes of a want comment.
var wantArgRe = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// collectWants parses every `// want ...` comment of a fixture package.
func collectWants(t *testing.T, pkg *lint.Package) []want {
	t.Helper()
	var wants []want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				args := wantArgRe.FindAllStringSubmatch(strings.TrimPrefix(text, "want "), -1)
				if len(args) == 0 {
					t.Fatalf("%s: want comment with no quoted pattern", pos)
				}
				for _, m := range args {
					pat := m[1]
					if m[2] != "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					wants = append(wants, want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

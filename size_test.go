package repro_test

// The size table (ROADMAP item 3, "Track it"): SIZES.txt records, for
// every package under internal/ and cmd/, its non-test code lines and
// its exported identifiers, and TestPackageSizes holds each package to
// its row — so growth is a decision somebody made, not drift.

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateSizes = flag.Bool("update", false, "rewrite SIZES.txt from the tree (go test -run PackageSizes -update .)")

const sizesFile = "SIZES.txt"

const sizesHeader = `# Size of every package under internal/ and cmd/, test files left out.
#   lines     lines that hold Go code: not blank, not only comment
#   exported  exported package-level names plus exported methods of
#             exported types
# TestPackageSizes (size_test.go) fails when a package has more of
# either than its row says or has no row. To grow a package on purpose,
# or to take a reduction into the table:
#   go test -run PackageSizes -update .
`

// pkgSize is one row of the table.
type pkgSize struct{ lines, exported int }

// TestPackageSizes measures the tree and compares it with SIZES.txt.
func TestPackageSizes(t *testing.T) {
	got, err := measureSizes("internal", "cmd")
	if err != nil {
		t.Fatal(err)
	}
	if *updateSizes {
		if err := os.WriteFile(sizesFile, formatSizes(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := readSizes(sizesFile)
	if err != nil {
		t.Fatal(err)
	}
	var total pkgSize
	for _, pkg := range sortedKeys(got) {
		g := got[pkg]
		total.lines, total.exported = total.lines+g.lines, total.exported+g.exported
		w, listed := want[pkg]
		switch {
		case !listed:
			t.Errorf("%s (%d lines, %d exported) has no row in %s", pkg, g.lines, g.exported, sizesFile)
		case g.lines > w.lines:
			t.Errorf("%s grew to %d code lines; %s allows %d", pkg, g.lines, sizesFile, w.lines)
		case g.exported > w.exported:
			t.Errorf("%s exports %d identifiers; %s allows %d", pkg, g.exported, sizesFile, w.exported)
		}
	}
	for _, pkg := range sortedKeys(want) {
		if _, ok := got[pkg]; !ok {
			t.Errorf("%s lists %s, which is gone; run with -update", sizesFile, pkg)
		}
	}
	t.Logf("%d code lines, %d exported identifiers", total.lines, total.exported)
}

// measureSizes sizes every directory under the roots that holds
// non-test Go files.
func measureSizes(roots ...string) (map[string]pkgSize, error) {
	sizes := map[string]pkgSize{}
	err := walkGoFiles(roots, false, func(path string, src []byte) error {
		exported, err := exportedNames(path, src)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		s := sizes[pkg]
		s.lines += codeLines(src)
		s.exported += exported
		sizes[pkg] = s
		return nil
	})
	return sizes, err
}

// walkGoFiles calls fn with the path and contents of every Go file
// under the roots that is a test file if tests is set and a non-test
// file if not. testdata directories are not packages, and a directory
// below a root that holds a go.mod is another module.
func walkGoFiles(roots []string, tests bool, fn func(path string, src []byte) error) error {
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); d.Name() == "testdata" || path != root && err == nil {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") != tests {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return fn(path, src)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// codeLines counts the lines of src that hold at least part of a token
// other than a comment.
func codeLines(src []byte) int {
	fset := token.NewFileSet()
	file := fset.AddFile("", fset.Base(), len(src))
	var s scanner.Scanner
	s.Init(file, src, nil, scanner.ScanComments)
	lines := map[int]bool{}
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			return len(lines)
		}
		if tok == token.COMMENT || (tok == token.SEMICOLON && lit == "\n") {
			continue
		}
		first := file.Line(pos)
		for l := first; l <= first+strings.Count(lit, "\n"); l++ { // a raw string spans lines
			lines[l] = true
		}
	}
}

// exportedNames counts a file's exported package-level names and its
// exported methods of exported types.
func exportedNames(path string, src []byte) (int, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.SkipObjectResolution)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && (d.Recv == nil || receiverExported(d.Recv)) {
				n++
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						n++
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() {
							n++
						}
					}
				}
			}
		}
	}
	return n, nil
}

// receiverExported reports whether a method's receiver type, with any
// pointer and type parameters taken off, is exported.
func receiverExported(recv *ast.FieldList) bool {
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return false
		}
	}
}

func sortedKeys(m map[string]pkgSize) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// formatSizes renders the table: the header, a row per package, and a
// total row for the reader (readSizes skips it).
func formatSizes(sizes map[string]pkgSize) []byte {
	var b bytes.Buffer
	b.WriteString(sizesHeader)
	var total pkgSize
	fmt.Fprintf(&b, "%-28s %6s %9s\n", "package", "lines", "exported")
	for _, pkg := range sortedKeys(sizes) {
		s := sizes[pkg]
		total.lines, total.exported = total.lines+s.lines, total.exported+s.exported
		fmt.Fprintf(&b, "%-28s %6d %9d\n", pkg, s.lines, s.exported)
	}
	fmt.Fprintf(&b, "%-28s %6d %9d\n", "total", total.lines, total.exported)
	return b.Bytes()
}

func readSizes(path string) (map[string]pkgSize, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sizes := map[string]pkgSize{}
	for i, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "package ") || strings.HasPrefix(line, "total ") {
			continue
		}
		var pkg string
		var s pkgSize
		if _, err := fmt.Sscanf(line, "%s %d %d", &pkg, &s.lines, &s.exported); err != nil {
			return nil, fmt.Errorf("%s:%d: %q: %v", path, i+1, line, err)
		}
		sizes[pkg] = s
	}
	return sizes, nil
}

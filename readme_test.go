package repro_test

// README.md quotes the committed artifacts, and these tests hold each
// quote to its source, so an artifact re-pinned without its README line
// fails tier-1:
//
//   - A number copied from a BENCH_*.json artifact carries a marker
//     naming its field, <!-- BENCH_ISP.query_speedup_x -->2.00x: a
//     dotted JSON path into BENCH_ISP.json whose numeric segments index
//     arrays. TestREADMENumbers formats the field at the precision of
//     the quoted text — an x suffix quotes the value, % a hundred times
//     it, K and M a thousandth and a millionth — and rounding is the
//     only tolerance. A marker that does not parse, and an unmarked N.Nx
//     or N.NNx anywhere in README, are failures.
//   - TestREADMEPackageMap holds the package map to SIZES.txt: every
//     package has a row (internal/accel/* covers its children) and every
//     row names a package.
//   - TestREADMESentinels holds the sentinel table to the code: each row's
//     Err… var is declared in each package the row names.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const (
	readmeFile       = "README.md"
	packageMapHeader = "| package | what it is |"
	sentinelHeader   = "| sentinel | package | returned by |"
)

var (
	// numberMarker matches a marker and the number it marks: the
	// artifact, the path, the digits and the suffix.
	numberMarker = regexp.MustCompile(`<!-- (BENCH_[A-Z]+)\.(\S+) -->(-?[0-9]+(?:\.[0-9]+)?)([xK%M]?)`)
	// markerStart matches the start of anything meant as a marker, so
	// one numberMarker does not parse is a failure, not a silent skip.
	markerStart = regexp.MustCompile(`<!-- BENCH_[A-Z]+\.`)
	// ratio matches a quoted ratio, which must be marked.
	ratio = regexp.MustCompile(`\b[0-9]+\.[0-9]{1,2}x\b`)
	// backticked matches a `name` in a table cell.
	backticked = regexp.MustCompile("`([^`]+)`")
)

// suffixScale is what a quoted number is the field's value times.
var suffixScale = map[string]float64{"": 1, "x": 1, "%": 100, "K": 1e-3, "M": 1e-6}

// readmeLine is one line of README.md with its 1-based number.
type readmeLine struct {
	n    int
	text string
}

func readReadme(t *testing.T) []readmeLine {
	t.Helper()
	f, err := os.Open(readmeFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []readmeLine
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines = append(lines, readmeLine{len(lines) + 1, sc.Text()})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestREADMENumbers checks every marked number against its artifact and
// refuses an unmarked ratio.
func TestREADMENumbers(t *testing.T) {
	artifacts := map[string]any{}
	marked := 0
	for _, l := range readReadme(t) {
		markers, starts := map[int]bool{}, map[int]bool{}
		for _, m := range numberMarker.FindAllStringSubmatchIndex(l.text, -1) {
			marked++
			markers[m[0]], starts[m[6]] = true, true
			name, path := l.text[m[2]:m[3]], l.text[m[4]:m[5]]
			quoted, suffix := l.text[m[6]:m[7]], l.text[m[8]:m[9]]
			doc, ok := artifacts[name]
			if !ok {
				doc = loadArtifact(t, name+".json")
				artifacts[name] = doc
			}
			v, err := jsonField(doc, path)
			if err != nil {
				t.Errorf("%s:%d: %s.%s: %v", readmeFile, l.n, name, path, err)
				continue
			}
			decimals := 0
			if dot := strings.IndexByte(quoted, '.'); dot >= 0 {
				decimals = len(quoted) - dot - 1
			}
			if want := strconv.FormatFloat(v*suffixScale[suffix], 'f', decimals, 64); want != quoted {
				t.Errorf("%s:%d: %s.%s is %v (%s%s at this precision); README quotes %s%s",
					readmeFile, l.n, name, path, v, want, suffix, quoted, suffix)
			}
		}
		for _, m := range markerStart.FindAllStringIndex(l.text, -1) {
			if !markers[m[0]] {
				t.Errorf("%s:%d: a marker at column %d is not <!-- BENCH_<ID>.<path> --> followed at once by a number",
					readmeFile, l.n, m[0]+1)
			}
		}
		for _, m := range ratio.FindAllStringIndex(l.text, -1) {
			if !starts[m[0]] {
				t.Errorf("%s:%d: %s is not marked; put <!-- BENCH_<ID>.<path> --> before it, or do not quote a ratio",
					readmeFile, l.n, l.text[m[0]:m[1]])
			}
		}
	}
	if marked == 0 {
		t.Errorf("%s marks no number: the test checks nothing", readmeFile)
	}
}

func loadArtifact(t *testing.T, file string) any {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return doc
}

// jsonField follows a dotted path into a decoded JSON document and
// returns the number it ends at.
func jsonField(doc any, path string) (float64, error) {
	for _, seg := range strings.Split(path, ".") {
		switch x := doc.(type) {
		case map[string]any:
			v, ok := x[seg]
			if !ok {
				return 0, fmt.Errorf("no field %q", seg)
			}
			doc = v
		case []any:
			i, err := strconv.Atoi(seg)
			if err != nil || i < 0 || i >= len(x) {
				return 0, fmt.Errorf("%q does not index an array of %d", seg, len(x))
			}
			doc = x[i]
		default:
			return 0, fmt.Errorf("%q goes below a leaf", seg)
		}
	}
	v, ok := doc.(float64)
	if !ok {
		return 0, fmt.Errorf("is %T, not a number", doc)
	}
	return v, nil
}

// tableRows returns the rows of the README table whose header line is
// header, the separator left out, each split into its cells.
func tableRows(t *testing.T, header string) [][]string {
	t.Helper()
	var rows [][]string
	in := false
	for _, l := range readReadme(t) {
		switch {
		case l.text == header:
			in = true
		case in && strings.HasPrefix(l.text, "|"):
			rows = append(rows, strings.Split(strings.Trim(l.text, "|"), "|"))
		case in:
			in = false
		}
	}
	if len(rows) < 2 {
		t.Fatalf("%s: no table under the header %q", readmeFile, header)
	}
	return rows[1:]
}

// TestREADMEPackageMap holds README's package map to SIZES.txt.
func TestREADMEPackageMap(t *testing.T) {
	sizes, err := readSizes(sizesFile)
	if err != nil {
		t.Fatal(err)
	}
	covered := map[string]bool{}
	for _, row := range tableRows(t, packageMapHeader) {
		names := backticked.FindAllStringSubmatch(row[0], -1)
		if len(names) == 0 {
			t.Errorf("package map row %q names no package", strings.Join(row, "|"))
		}
		for _, n := range names {
			name := n[1]
			found := false
			for pkg := range sizes {
				if pkg == name || strings.HasSuffix(name, "/*") && strings.HasPrefix(pkg, strings.TrimSuffix(name, "*")) {
					covered[pkg], found = true, true
				}
			}
			if !found {
				t.Errorf("package map names %s, which %s does not list", name, sizesFile)
			}
		}
	}
	var missing []string
	for pkg := range sizes {
		if !covered[pkg] {
			missing = append(missing, pkg)
		}
	}
	sort.Strings(missing)
	for _, pkg := range missing {
		t.Errorf("%s has no row in %s's package map", pkg, readmeFile)
	}
}

// TestREADMESentinels requires, for every row of README's sentinel table,
// the named Err… var in each package the row names.
func TestREADMESentinels(t *testing.T) {
	sizes, err := readSizes(sizesFile)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]map[string]bool{} // package dir → its package-level vars
	for _, row := range tableRows(t, sentinelHeader) {
		if len(row) < 2 {
			t.Errorf("sentinel row %q has no package cell", strings.Join(row, "|"))
			continue
		}
		sentinel := strings.Trim(strings.TrimSpace(row[0]), "`")
		if !strings.HasPrefix(sentinel, "Err") {
			t.Errorf("sentinel row names %q, not an Err… var", sentinel)
			continue
		}
		pkgs := backticked.FindAllStringSubmatch(row[1], -1)
		if len(pkgs) == 0 {
			t.Errorf("sentinel row %s names no package", sentinel)
		}
		for _, p := range pkgs {
			dir, err := packageDir(sizes, p[1])
			if err != nil {
				t.Errorf("sentinel row %s: %v", sentinel, err)
				continue
			}
			if declared[dir] == nil {
				declared[dir] = packageVars(t, dir)
			}
			if !declared[dir][sentinel] {
				t.Errorf("sentinel table: %s declares no var %s", dir, sentinel)
			}
		}
	}
}

// packageDir resolves a package's short name to its one SIZES.txt row.
func packageDir(sizes map[string]pkgSize, name string) (string, error) {
	var dirs []string
	for pkg := range sizes {
		if filepath.Base(pkg) == name {
			dirs = append(dirs, pkg)
		}
	}
	if len(dirs) != 1 {
		return "", fmt.Errorf("package %s matches %d rows of %s: %v", name, len(dirs), sizesFile, dirs)
	}
	return dirs[0], nil
}

// packageVars returns the package-level var names the non-test files of
// dir declare.
func packageVars(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	vars := map[string]bool{}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if d, ok := decl.(*ast.GenDecl); ok && d.Tok == token.VAR {
				for _, spec := range d.Specs {
					for _, n := range spec.(*ast.ValueSpec).Names {
						vars[n.Name] = true
					}
				}
			}
		}
	}
	return vars
}

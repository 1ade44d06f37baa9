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
// Fixtures live under testdata/ (invisible to go list) and load through
// lint.LoadFixture as if they lived at a caller-chosen module-relative
// path — which is what the analyzers' scope fences key on. Most import
// only the standard library; the packages of this module a fixture
// imports are analyzed in one snapshot with it, which is what a
// module-wide analyzer sees, and a finding in one of them fails the
// test like any unexpected one. Each subdirectory of a fixture is one
// more fixture package, at relPath plus its name, which the fixture
// may import; its want comments count like the fixture's. As in the
// real loader, _test.go files are never loaded.
package linttest

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
)

// Diags loads the fixture package in dir as if it lived at relPath
// inside the module, runs the analyzers over it, and returns the
// diagnostics (suppressions honored, unused ones reported — exactly
// like a real run).
//
//simlint:allow unused (test-support package)
func Diags(t *testing.T, dir, relPath string, analyzers ...*lint.Analyzer) []lint.Diagnostic {
	t.Helper()
	return load(t, dir, relPath).Run(analyzers)
}

// Run executes the analyzers over the fixture in dir and fails the
// test on any mismatch between diagnostics and // want expectations.
//
//simlint:allow unused (test-support package)
func Run(t *testing.T, dir, relPath string, analyzers ...*lint.Analyzer) {
	t.Helper()
	snap := load(t, dir, relPath)
	diags := snap.Run(analyzers)

	var wants []want
	for _, p := range snap.Pkgs {
		if strings.HasPrefix(p.ImportPath+"/", modulePath+"/"+relPath+"/") {
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

// modulePath is this module's path, which fixtures import each other
// under.
const modulePath = "repro"

// load loads one fixture directory, failing the test if it cannot.
func load(t *testing.T, dir, relPath string) *lint.Snapshot {
	t.Helper()
	snap, err := lint.LoadFixture(dir, modulePath, relPath)
	if err != nil {
		t.Fatal(err)
	}
	return snap
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

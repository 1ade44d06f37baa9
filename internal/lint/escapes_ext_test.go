package lint_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestParseEscapes pins the -m diagnostic filter: positive heap
// decisions survive, "does not escape" and inliner chatter do not,
// and positions parse exactly.
func TestParseEscapes(t *testing.T) {
	out := strings.Join([]string{
		"# repro/internal/sim",
		"internal/sim/engine.go:10:6: can inline (*Engine).Now",
		"internal/sim/engine.go:244:20: fmt.Sprintf(...) escapes to heap",
		"internal/sim/engine.go:250:6: moved to heap: buf",
		"internal/sim/engine.go:260:12: make([]int, n) does not escape",
		"internal/sim/engine.go:261:9: &Engine{} escapes to heap",
		"internal/sim/engine.go:270:14: inlining call to foo",
		"not a diagnostic line",
		"",
	}, "\n")
	sites := lint.ParseEscapes(out)
	want := []lint.EscapeSite{
		{File: "internal/sim/engine.go", Line: 244, Col: 20, Msg: "fmt.Sprintf(...) escapes to heap"},
		{File: "internal/sim/engine.go", Line: 250, Col: 6, Msg: "moved to heap: buf"},
		{File: "internal/sim/engine.go", Line: 261, Col: 9, Msg: "&Engine{} escapes to heap"},
	}
	if len(sites) != len(want) {
		t.Fatalf("got %d sites %v, want %d", len(sites), sites, len(want))
	}
	for i, w := range want {
		if sites[i] != w {
			t.Errorf("site %d: got %+v, want %+v", i, sites[i], w)
		}
	}
}

// TestEscapeCheck drives the cross-check against the hotcall fixture
// with synthetic compiler decisions: a heap decision in a
// hot-reachable function at a line the hotpath walk did not see is the
// one finding; a line the walk flags, a cold function, a panic line
// and an audited line all stay silent.
func TestEscapeCheck(t *testing.T) {
	snap, err := lint.LoadFixture("testdata/hotcall", "repro", "internal/fixture")
	if err != nil {
		t.Fatal(err)
	}
	pkg := snap.Pkgs[len(snap.Pkgs)-1]

	file := pkg.Fset.Position(pkg.Files[0].Pos()).Filename
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	lineOf := func(substr string) int {
		for i, l := range strings.Split(string(src), "\n") {
			if strings.Contains(l, substr) {
				return i + 1
			}
		}
		t.Fatalf("no line contains %q", substr)
		return 0
	}

	sites := []lint.EscapeSite{
		// AST-unseen escape in a hot-reachable function: the finding.
		{File: file, Line: lineOf("// escapes:unseen"), Col: 2, Msg: "moved to heap: s"},
		// The walk already owns this allocation (hotpath flags it).
		{File: file, Line: lineOf("s.buf = make([]byte, 8)"), Col: 8, Msg: "make([]byte, 8) escapes to heap"},
		// Cold function: the compiler may allocate freely.
		{File: file, Line: lineOf("return make([]byte, 1<<20)"), Col: 9, Msg: "make([]byte, 1 << 20) escapes to heap"},
		// Dying path: exempt like the AST suite.
		{File: file, Line: lineOf("// escapes:panic"), Col: 3, Msg: `"bad fixture input" escapes to heap`},
		// Audited: the //simlint:allow escapecheck directive absorbs it.
		{File: file, Line: lineOf("// escapes:audited"), Col: 2, Msg: "moved to heap: s"},
	}

	diags := lint.EscapeCheck(snap, sites)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics %v, want 1", len(diags), diags)
	}
	d := diags[0]
	if d.Check != "escapecheck" || d.Pos.Line != lineOf("// escapes:unseen") ||
		!strings.Contains(d.Message, "moved to heap: s") ||
		!strings.Contains(d.Message, "fixture.hotUnseen") {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

package lint_test

import (
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// The per-package analyzers, each against its fixture package loaded
// as if it lived inside the deterministic core. Every want comment
// pins a finding; every unmarked construct pins the absence of one.

func TestMaprange(t *testing.T) {
	linttest.Run(t, "testdata/maprange", "internal/fixture", lint.Maprange)
}

// The forbidden check, once over its table of banned package
// functions and once over its banned syntax kinds.

func TestWalltime(t *testing.T) {
	linttest.Run(t, "testdata/forbidden/clock", "internal/fixture", lint.Forbidden)
}

func TestNoconcurrency(t *testing.T) {
	linttest.Run(t, "testdata/forbidden/concurrency", "internal/fixture", lint.Forbidden)
}

func TestHotpath(t *testing.T) {
	linttest.Run(t, "testdata/hotpath", "internal/fixture", lint.Hotpath)
}

func TestErrdrop(t *testing.T) {
	linttest.Run(t, "testdata/errdrop", "internal/fixture", lint.Errdrop)
}

// TestFloatfuse: the check holds outside internal/ too (cmd, examples),
// where code runs whether or not the arm64 disassembly step links it.
func TestFloatfuse(t *testing.T) {
	linttest.Run(t, "testdata/floatfuse", "internal/fixture", lint.Floatfuse)
	linttest.Run(t, "testdata/floatfuse", "cmd/fixture", lint.Floatfuse)
}

// The interprocedural analyzers: hotpath's walk over the call graph,
// and the CFG-based obligation check.

func TestHotcall(t *testing.T) {
	linttest.Run(t, "testdata/hotcall", "internal/fixture", lint.Hotpath)
}

// The obligation check: pool objects, the module's sim.Pool, and
// once-callbacks.

func TestPoolleak(t *testing.T) {
	linttest.Run(t, "testdata/obligation/pool", "internal/fixture", lint.Obligation)
}

// TestPoolleakSimPool: the one //simlint:pool marker lives on sim.Pool,
// so the check must follow Get and Put across packages and through the
// instantiations of a generic method.
func TestPoolleakSimPool(t *testing.T) {
	linttest.Run(t, "testdata/obligation/simpool", "internal/fixture", lint.Obligation)
}

func TestOncedone(t *testing.T) {
	linttest.Run(t, "testdata/obligation/once", "internal/fixture", lint.Obligation)
}

// TestUnused: each kind of unreferenced exported name is flagged; a
// reference from another package counts, one from a _test.go file
// does not, and an interface-satisfying method and an audited allow
// are accepted.
func TestUnused(t *testing.T) {
	linttest.Run(t, "testdata/unused", "internal/fixture", lint.Unused)
}

// TestUnusedDirectiveAudit: an allow unused with no reason is a
// finding (and suppresses nothing), and so is one that covers nothing.
func TestUnusedDirectiveAudit(t *testing.T) {
	diags := linttest.Diags(t, "testdata/unused_directives", "internal/fixture", lint.Unused)
	wants := []struct{ check, text string }{
		{"simlint", `suppression of "unused" needs a reason`},
		{"unused", "func NoReason has no reference outside test files"},
		{"simlint", `unused suppression: nothing this directive covers triggers "unused"`},
	}
	if len(diags) != len(wants) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(diags), len(wants), diags)
	}
	for i, w := range wants {
		if d := diags[i]; d.Check != w.check || !strings.Contains(d.Message, w.text) {
			t.Errorf("diagnostic %d: %s, want %s: …%s…", i, d, w.check, w.text)
		}
	}
}

// Scope fences: the same fixture sources produce no findings when the
// package sits on the other side of its analyzer's fence. Unused
// suppressions (pseudo-check "simlint") are filtered: with the real
// check fenced off, its fixture suppressions necessarily go unused.
func TestScopeFences(t *testing.T) {
	cases := []struct {
		name, dir, relPath string
		analyzer           *lint.Analyzer
	}{
		{"walltime-harness", "testdata/forbidden/clock", "internal/experiments/fixture", lint.Forbidden},
		{"walltime-cmd", "testdata/forbidden/clock", "cmd/fixture", lint.Forbidden},
		{"walltime-report", "testdata/forbidden/clock", "internal/report", lint.Forbidden},
		{"noconcurrency-report", "testdata/forbidden/concurrency", "internal/report", lint.Forbidden},
		{"noconcurrency-experiments", "testdata/forbidden/concurrency", "internal/experiments", lint.Forbidden},
		{"noconcurrency-cmd", "testdata/forbidden/concurrency", "cmd/fixture", lint.Forbidden},
		{"maprange-outside-internal", "testdata/maprange", "cmd/fixture", lint.Maprange},
		{"errdrop-outside-internal", "testdata/errdrop", "cmd/fixture", lint.Errdrop},
		{"floatfuse-lint", "testdata/floatfuse", "internal/lint/fixture", lint.Floatfuse},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, d := range linttest.Diags(t, tc.dir, tc.relPath, tc.analyzer) {
				if d.Check == "simlint" {
					continue
				}
				t.Errorf("finding leaked through the %s scope fence: %s", tc.name, d)
			}
		})
	}
}

// Directive hygiene: malformed directives, unknown checks (the old
// names of folded checks among them), missing reasons and suppressions
// that suppress nothing are all findings.
func TestDirectiveAudit(t *testing.T) {
	diags := linttest.Diags(t, "testdata/directives", "internal/fixture", lint.Maprange)
	wants := []string{
		"malformed directive",
		`suppression of "maprange" needs a reason`,
		`unknown check "nosuchcheck"`,
		`unknown check "poolleak"`,
		`unknown check "oncedone"`,
		`unknown check "walltime"`,
		`unknown check "noconcurrency"`,
		"unused suppression",
	}
	if len(diags) != len(wants) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(diags), len(wants), diags)
	}
	for _, w := range wants {
		found := false
		for _, d := range diags {
			if d.Check == "simlint" && strings.Contains(d.Message, w) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no simlint diagnostic containing %q in %v", w, diags)
		}
	}
}

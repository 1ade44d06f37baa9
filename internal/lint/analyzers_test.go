package lint_test

import (
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// The five analyzers, each against its fixture package loaded as if it
// lived inside the deterministic core. Every want comment pins a
// finding; every unmarked construct pins the absence of one.

func TestMaprange(t *testing.T) {
	linttest.Run(t, "testdata/maprange", "internal/fixture", lint.Maprange)
}

func TestWalltime(t *testing.T) {
	linttest.Run(t, "testdata/walltime", "internal/fixture", lint.Walltime)
}

func TestNoconcurrency(t *testing.T) {
	linttest.Run(t, "testdata/noconcurrency", "internal/fixture", lint.Noconcurrency)
}

func TestHotpath(t *testing.T) {
	linttest.Run(t, "testdata/hotpath", "internal/fixture", lint.Hotpath)
}

func TestErrdrop(t *testing.T) {
	linttest.Run(t, "testdata/errdrop", "internal/fixture", lint.Errdrop)
}

// The interprocedural analyzers. Hotcall runs alongside Hotpath so
// annotated roots stay that analyzer's responsibility and the fixture
// pins the division of labor; the CFG-based pair run alone.

func TestHotcall(t *testing.T) {
	linttest.Run(t, "testdata/hotcall", "internal/fixture", lint.Hotpath, lint.Hotcall)
}

func TestPoolleak(t *testing.T) {
	linttest.Run(t, "testdata/poolleak", "internal/fixture", lint.Poolleak)
}

// TestPoolleakSimPool: the one //simlint:pool marker lives on sim.Pool,
// so the leak check must follow Get and Put across packages and through
// the instantiations of a generic method.
func TestPoolleakSimPool(t *testing.T) {
	linttest.Run(t, "testdata/poolleak_simpool", "internal/fixture", lint.Poolleak)
}

func TestOncedone(t *testing.T) {
	linttest.Run(t, "testdata/oncedone", "internal/fixture", lint.Oncedone)
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
		{"walltime-harness", "testdata/walltime", "internal/experiments/fixture", lint.Walltime},
		{"walltime-cmd", "testdata/walltime", "cmd/fixture", lint.Walltime},
		{"noconcurrency-report", "testdata/noconcurrency", "internal/report", lint.Noconcurrency},
		{"noconcurrency-experiments", "testdata/noconcurrency", "internal/experiments", lint.Noconcurrency},
		{"maprange-outside-internal", "testdata/maprange", "cmd/fixture", lint.Maprange},
		{"errdrop-outside-internal", "testdata/errdrop", "cmd/fixture", lint.Errdrop},
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

// Directive hygiene: malformed directives, unknown checks, missing
// reasons and suppressions that suppress nothing are all findings.
func TestDirectiveAudit(t *testing.T) {
	diags := linttest.Diags(t, "testdata/directives", "internal/fixture", lint.Maprange)
	wants := []string{
		"malformed directive",
		`suppression of "maprange" needs a reason`,
		`unknown check "nosuchcheck"`,
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

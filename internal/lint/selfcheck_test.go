package lint

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// The repo gates load the module once and share the snapshot.
var (
	repoSnapOnce sync.Once
	repoSnap     *Snapshot
	repoSnapErr  error
)

func repoSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	repoSnapOnce.Do(func() {
		root, err := moduleRoot()
		if err != nil {
			repoSnapErr = err
			return
		}
		repoSnap, repoSnapErr = LoadSnapshot(root, "./...")
	})
	if repoSnapErr != nil {
		t.Fatal(repoSnapErr)
	}
	return repoSnap
}

// TestRepoIsLintClean runs the full simlint suite over the whole
// module and requires zero findings — the same gate CI applies via
// cmd/simlint, enforced here so a plain `go test ./...` catches new
// determinism regressions without a separate step.
func TestRepoIsLintClean(t *testing.T) {
	diags := repoSnapshot(t).Run(Analyzers())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Errorf("%d finding(s); fix them or add an audited //simlint:allow <check> (reason)", len(diags))
	}
}

// TestUnusedSkipsPackageSubsets: on a subset of the module, unused
// cannot see the other packages' references, so it reports nothing —
// neither the names they use nor its own directives, which sim has.
func TestUnusedSkipsPackageSubsets(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := LoadSnapshot(root, "./internal/sim/")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range snap.Run([]*Analyzer{Unused}) {
		t.Errorf("%s", d)
	}
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}

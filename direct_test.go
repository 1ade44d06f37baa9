package repro_test

// Who reads flash unadmitted: core.Node.ISPReadDirect issues a
// device-side read around the scheduler. The admitted paths (the Accel
// class dispatcher, ispvol's engines) reach it through sched; every
// other caller is a runner that has not moved onto ispvol's engine
// yet, or a tool that times the raw path. TestDirectReadCallers holds
// that list to a table, so a new unadmitted reader is a decision
// somebody made, and a runner that moves onto the engine deletes its
// row.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"testing"
)

// directReaders names every non-test file that names ISPReadDirect,
// with why it may.
var directReaders = map[string]string{
	"internal/core/node.go":            "the definition",
	"internal/sched/sched.go":          "the Accel dispatcher issues an admitted read here once granted",
	"internal/ispvol/ispvol.go":        "the Bypass arm, the scheduler-bypass bug kept as an experiment",
	"internal/experiments/fig12.go":    "Figure 12 times the raw ISP-F path",
	"internal/experiments/fig13.go":    "Figure 13's local engines read the card directly",
	"internal/accel/lsh/runner.go":     "Figures 16-19's single-node nearest-neighbour runner",
	"internal/accel/graph/traverse.go": "Figure 20's ISP-F graph walk",
	"cmd/bluedbm-sim/main.go":          "the snapshot tool's mixed read load",
	"examples/quickstart/main.go":      "the quickstart shows every access path",
}

func TestDirectReadCallers(t *testing.T) {
	var got []string
	err := walkGoFiles([]string{"internal", "cmd", "examples"}, func(path string, src []byte) error {
		f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if namesDirectRead(f) {
			got = append(got, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range got {
		if _, ok := directReaders[path]; !ok {
			t.Errorf("%s reads flash through ISPReadDirect, around the scheduler; run in-store work on ispvol's engine, or add a row to directReaders", path)
		}
	}
	for path := range directReaders {
		if !slices.Contains(got, path) {
			t.Errorf("%s no longer names ISPReadDirect; delete its row from directReaders", path)
		}
	}
}

// namesDirectRead reports whether a file declares ISPReadDirect or
// selects it (a call or a method value).
func namesDirectRead(f *ast.File) bool {
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			found = found || x.Name.Name == "ISPReadDirect"
		case *ast.SelectorExpr:
			found = found || x.Sel.Name == "ISPReadDirect"
		}
		return !found
	})
	return found
}

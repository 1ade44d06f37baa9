package repro_test

// Who reads flash unadmitted: core.Node.ISPReadDirect issues a
// device-side read around the scheduler. The admitted paths (ispvol's
// engines) reach the Accel class dispatcher through sched, which issues
// through core.Node.ISPReadAdmitted, the read that yields at the chip;
// every other caller of ISPReadDirect is a runner that has not moved
// onto ispvol's engine yet, or a tool that times the raw path.
// TestDirectReadCallers holds both lists to a table, so a new
// unadmitted reader — or a read that yields without admission — is a
// decision somebody made, and a runner that moves onto the engine
// deletes its row.
//
// Who opens a flash-server interface: a private in-order channel to a
// card (core.Node.NewIface, flashserver.Server.NewIface and
// NewBulkIface) reads and writes around the scheduler too.
// TestIfaceOpeners holds the files that open one to a table.

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
	"internal/ispvol/ispvol.go":        "the Bypass arm, the scheduler-bypass bug kept as an experiment",
	"internal/experiments/fig12.go":    "Figure 12 times the raw ISP-F path",
	"internal/experiments/fig13.go":    "Figure 13's remote engines read over the network, and Host-Local reads the card before its PCIe transfer",
	"internal/accel/lsh/runner.go":     "Figure 19's BlueDBM+SW reads candidate pages before its PCIe transfer and software compare",
	"internal/accel/graph/traverse.go": "Figure 20's ISP-F graph walk",
	"examples/quickstart/main.go":      "the quickstart shows every access path",
}

// ifaceOpeners names every non-test file that opens a flash-server
// interface, with why it may.
var ifaceOpeners = map[string]string{
	"internal/flashserver/server.go": "the definitions",
	"internal/core/node.go":          "Node.NewIface, the definition on a node",
	"internal/core/cluster.go":       "each card's host, background and in-store interfaces, opened once when the node is built",
	"internal/experiments/fig13.go":  "Figure 13's local engines read the card's raw bandwidth",
	"internal/experiments/fig21.go":  "Figure 21's haystack lives on a single-card file system",
	"cmd/bluedbm-fs/main.go":         "the file system shell mounts a single-card file system",
	"examples/stringsearch/main.go":  "the example's genome lives on a single-card file system",
}

// admittedReaders names every non-test file that names
// ISPReadAdmitted, with why it may.
var admittedReaders = map[string]string{
	"internal/core/node.go":   "the definition",
	"internal/sched/sched.go": "the Accel dispatcher issues an admitted read here once granted",
}

func TestDirectReadCallers(t *testing.T) {
	got := map[string][]string{}
	err := walkGoFiles([]string{"internal", "cmd", "examples"}, func(path string, src []byte) error {
		f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, name := range []string{"ISPReadDirect", "ISPReadAdmitted"} {
			if namesMethod(f, name) {
				got[name] = append(got[name], filepath.ToSlash(path))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, table := range map[string]map[string]string{"ISPReadDirect": directReaders, "ISPReadAdmitted": admittedReaders} {
		for _, path := range got[name] {
			if _, ok := table[path]; !ok {
				t.Errorf("%s reads flash through %s; run in-store work on ispvol's engine, or add a row to the table", path, name)
			}
		}
		for path := range table {
			if !slices.Contains(got[name], path) {
				t.Errorf("%s no longer names %s; delete its row from the table", path, name)
			}
		}
	}
}

func TestIfaceOpeners(t *testing.T) {
	var got []string
	err := walkGoFiles([]string{"internal", "cmd", "examples"}, func(path string, src []byte) error {
		f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if namesMethod(f, "NewIface") || namesMethod(f, "NewBulkIface") {
			got = append(got, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range got {
		if _, ok := ifaceOpeners[path]; !ok {
			t.Errorf("%s opens a flash-server interface; read through sched or ispvol's engine, or add a row to the table", path)
		}
	}
	for path := range ifaceOpeners {
		if !slices.Contains(got, path) {
			t.Errorf("%s no longer opens a flash-server interface; delete its row from the table", path)
		}
	}
}

// namesMethod reports whether a file declares a function or method
// called name or selects it (a call or a method value).
func namesMethod(f *ast.File, name string) bool {
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			found = found || x.Name.Name == name
		case *ast.SelectorExpr:
			found = found || x.Sel.Name == name
		}
		return !found
	})
	return found
}

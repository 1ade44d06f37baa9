package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// Forbidden bans, inside the deterministic core, every package
// function and syntax kind that couples a run to the host instead of
// the event engine: the host clock, the process-global math/rand
// stream, and concurrency. Simulated time advances only through
// sim.Engine, every random draw comes from a seeded sim.RNG, and the
// simulation is one event loop in virtual time, where "concurrency"
// cannot buy parallelism, only a host-scheduler dependence that breaks
// replay. The harness side (internal/experiments, cmd/) measures host
// wall-clock around whole runs and is outside the core.
//
// Building a locally-seeded generator (rand.New(rand.NewSource(seed)))
// is always allowed, and so is a method of a simulation type that
// happens to share a banned function's name: only package-level
// functions are matched.
var Forbidden = &Analyzer{
	Name: "forbidden",
	Doc:  "host clock, global math/rand or concurrency inside the deterministic core",
	Run:  runForbidden,
}

// bannedAPIs is the table of banned package functions, keyed by import
// path: the functions the core may not call (every use, reported at the
// import, when there are none) and the message, whose one verb takes
// "pkg.Func" (or the import path).
var bannedAPIs = map[string]struct{ funcs, msg string }{
	"time": {"Now Since Until Sleep After AfterFunc Tick NewTimer NewTicker",
		"%s reads the host clock; simulated time comes from sim.Engine"},
	"math/rand":    {globalRand, globalRandMsg},
	"math/rand/v2": {globalRand, globalRandMsg},
	"sync":         {"", threadsMsg},
	"sync/atomic":  {"", threadsMsg},
}

const (
	globalRand = "Int Intn Int31 Int31n Int63 Int63n IntN Int32 Int32N Int64 Int64N N Uint32 Uint64 Uint " +
		"UintN Uint32N Uint64N Float32 Float64 NormFloat64 ExpFloat64 Perm Shuffle Seed Read"
	globalRandMsg = "global %s draws from process-global state; use a seeded sim.RNG"
	threadsMsg    = "import of %q in the deterministic core; the simulation is single-threaded"
)

// bannedSyntax is the table of banned syntax kinds: the message for n,
// or "" when n is allowed.
func bannedSyntax(p *Pass, n ast.Node) string {
	switch x := n.(type) {
	case *ast.GoStmt:
		return "go statement in the deterministic core; schedule an event on sim.Engine instead"
	case *ast.SendStmt:
		return "channel send in the deterministic core"
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			return "channel receive in the deterministic core"
		}
	case *ast.SelectStmt:
		return "select statement in the deterministic core"
	case *ast.ChanType:
		return "channel type in the deterministic core; use engine callbacks"
	case *ast.RangeStmt:
		if t := p.TypeOf(x.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				return "range over a channel in the deterministic core"
			}
		}
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "close" && isBuiltin(p.Info, id) {
			return "close of a channel in the deterministic core"
		}
	}
	return ""
}

func runForbidden(p *Pass) {
	if !inDeterministicCore(p.RelPath) {
		return
	}
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if ban, ok := bannedAPIs[path]; ok && ban.funcs == "" {
				p.Reportf(imp.Pos(), ban.msg, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if msg := bannedSyntax(p, n); msg != "" {
				p.Reportf(n.Pos(), "%s", msg)
			}
			// Only package-level functions: a method named Now on a
			// simulation type is fine.
			sel, ok := n.(*ast.SelectorExpr)
			if _, isMethod := p.Info.Selections[sel]; !ok || isMethod {
				return true
			}
			if obj := p.ObjectOf(sel.Sel); obj != nil && obj.Pkg() != nil {
				ban := bannedAPIs[obj.Pkg().Path()]
				if ban.funcs != "" && strings.Contains(" "+ban.funcs+" ", " "+obj.Name()+" ") {
					p.Reportf(sel.Pos(), ban.msg, obj.Pkg().Name()+"."+obj.Name())
				}
			}
			return true
		})
	}
}

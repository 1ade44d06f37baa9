package lint

import (
	"go/token"
	"sort"
)

// Hotcall extends the hotpath check across the module call graph: a
// function with no //simlint:hotpath annotation of its own, but
// reachable from an annotated function through statically resolvable
// calls, is held to the same allocation rules — an allocation hidden
// one helper down is exactly as hot as one written inline. Findings
// report the full call chain from the annotated root:
//
//	hot call chain sched.Retrier.Read → sched.Retrier.admit:
//	make allocates in hot path
//
// Interface method calls fan out to every in-module implementation —
// the conservative closure of what the dispatch could reach. When a
// virtual call site is genuinely cold (a slow-path interface used
// only at setup), an audited
//
//	//simlint:allow hotcall (reason)
//
// on the call line prunes propagation through that site. The same
// directive on an allocation line inside a reached function audits
// that single allocation, exactly like //simlint:allow hotpath does in
// annotated functions. When one line carries both a call and an
// allocation (a closure passed as the call's argument), one directive
// does both: the allocation is audited and the callees behind that
// line drop out of hot propagation — the audit comment should account
// for both effects.
var Hotcall = &Analyzer{
	Name:      "hotcall",
	Doc:       "allocation source reachable from a //simlint:hotpath function",
	RunModule: runHotcall,
}

func runHotcall(m *ModulePass) {
	cg := m.Snap.CallGraph()
	allow := func(pos token.Pos) bool {
		n := nodeAt(cg, pos)
		if n == nil {
			return false
		}
		return m.Pass(n.pkg).Allowed(m.Analyzer.Name, pos)
	}
	reached := hotReachable(cg, allow)

	// Deterministic reporting order (the final sort breaks ties, but
	// walking in source order keeps chain discovery stable too).
	var todo []*hotChain
	for n, hc := range reached {
		if n.hot {
			continue // the hotpath analyzer owns annotated bodies
		}
		todo = append(todo, hc)
	}
	sort.Slice(todo, func(i, j int) bool { return todo[i].node.decl.Pos() < todo[j].node.decl.Pos() })

	for _, hc := range todo {
		n := hc.node
		p := m.Pass(n.pkg)
		h := &hotpathWalk{p: p, fn: n.decl, chain: "hot call chain " + hc.render() + ": "}
		h.allowedAppends = recycledAppends(p, n.decl.Body)
		h.walk(n.decl.Body)
	}
}

// nodeAt finds the call-graph node whose declaration encloses pos.
// Positions come from edges, which always sit inside some declared
// body, so a linear scan per allow query would do — but edges are
// plentiful, so index lazily by file.
func nodeAt(cg *callGraph, pos token.Pos) *cgNode {
	for _, n := range cg.nodes {
		if n.decl.Pos() <= pos && pos <= n.decl.End() {
			return n
		}
	}
	return nil
}

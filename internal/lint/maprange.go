package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Maprange flags `for ... range` over a map in the deterministic core.
// Go randomizes map iteration order per run, so any map range whose
// body has order-dependent effects breaks bit-exact reproducibility —
// the invariant every golden digest and committed BENCH artifact
// assumes.
//
// A range is exempt when its body is provably order-insensitive:
//
//   - it binds neither key nor value (`for range m` — a counted loop);
//   - every statement is a commutative accumulation: `x += e`, `x -= e`,
//     `x *= e`, `x |= e`, `x &= e`, `x ^= e`, `x++`/`x--`,
//     `x = max(x, e)` / `x = min(x, e)`, `delete(m2, k)`, or a write
//     `dst[k] = e` indexed by the range key (distinct keys touch
//     distinct slots);
//   - or it only appends to slices that are sorted later in the same
//     function (collect-then-sort).
//
// Everything else needs a fix — sort the keys, use a dense slice — or
// an audited `//simlint:allow maprange (reason)`.
var Maprange = &Analyzer{
	Name: "maprange",
	Doc:  "order-dependent iteration over a map in the deterministic core",
	Run:  runMaprange,
}

func runMaprange(p *Pass) {
	if !inInternal(p.RelPath) {
		return
	}
	for _, f := range p.Files {
		// Walk function by function so collect-then-sort can see the
		// statements that follow a range within its enclosing function.
		ast.Inspect(f, func(n ast.Node) bool {
			fn := enclosedBody(n)
			if fn == nil {
				return true
			}
			checkMapRangesIn(p, fn)
			return true
		})
	}
}

// enclosedBody returns the body of a function declaration or literal.
func enclosedBody(n ast.Node) *ast.BlockStmt {
	switch fn := n.(type) {
	case *ast.FuncDecl:
		return fn.Body
	case *ast.FuncLit:
		return fn.Body
	}
	return nil
}

// checkMapRangesIn flags the order-sensitive map ranges directly inside
// one function body (nested function literals are visited separately
// by the outer walk).
func checkMapRangesIn(p *Pass, body *ast.BlockStmt) {
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && fl.Body != body {
			return false // analyzed with its own enclosing-body context
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := p.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if rs.Key == nil && rs.Value == nil {
			return true // counted loop: iteration order is irrelevant
		}
		if commutativeBody(p, rs) {
			return true
		}
		if collectThenSort(p, rs, body) {
			return true
		}
		p.Reportf(rs.For, "iteration over map %s has order-dependent effects; sort the keys or use a dense slice", exprString(rs.X))
		return true
	})
}

// commutativeBody reports whether every statement of the range body is
// an order-insensitive accumulation.
func commutativeBody(p *Pass, rs *ast.RangeStmt) bool {
	if len(rs.Body.List) == 0 {
		return true
	}
	for _, st := range rs.Body.List {
		if !commutativeStmt(p, rs, st) {
			return false
		}
	}
	return true
}

func commutativeStmt(p *Pass, rs *ast.RangeStmt, st ast.Stmt) bool {
	switch s := st.(type) {
	case *ast.IncDecStmt:
		return true // x++ / x-- commute
	case *ast.AssignStmt:
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return false
		}
		switch s.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
			token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			// Only integer accumulation commutes bit-exactly: string
			// concatenation is ordered, and float rounding makes the
			// sum depend on summation order.
			return isIntegerType(p.TypeOf(s.Lhs[0]))
		case token.ASSIGN, token.DEFINE:
			// dst[key] = e: distinct keys write distinct slots.
			if ix, ok := s.Lhs[0].(*ast.IndexExpr); ok && isRangeKey(p, rs, ix.Index) {
				return true
			}
			// x = max(x, e) / x = min(x, e).
			return isMinMaxFold(p, s)
		}
		return false
	case *ast.ExprStmt:
		// delete(m2, k): set subtraction commutes.
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" && isBuiltin(p.Info, id) {
				return true
			}
		}
		return false
	}
	return false
}

// isRangeKey reports whether e is exactly the range statement's key
// variable.
func isRangeKey(p *Pass, rs *ast.RangeStmt, e ast.Expr) bool {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	ko, io := p.ObjectOf(key), p.ObjectOf(id)
	return ko != nil && ko == io
}

// isMinMaxFold matches `x = max(x, ...)` and `x = min(x, ...)` with the
// builtin max/min.
func isMinMaxFold(p *Pass, s *ast.AssignStmt) bool {
	lhs, ok := s.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || (fn.Name != "max" && fn.Name != "min") || !isBuiltin(p.Info, fn) {
		return false
	}
	lo := p.ObjectOf(lhs)
	for _, a := range call.Args {
		if id, ok := a.(*ast.Ident); ok && lo != nil && p.ObjectOf(id) == lo {
			return true
		}
	}
	return false
}

// isIntegerType reports whether t's underlying type is an integer.
func isIntegerType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isBuiltin reports whether id resolves to a Go builtin.
func isBuiltin(info *types.Info, id *ast.Ident) bool {
	_, ok := info.ObjectOf(id).(*types.Builtin)
	return ok
}

// collectThenSort reports whether the body only appends into local
// slices and every such slice is passed to a sort call later in the
// enclosing function — the canonical deterministic-iteration idiom:
//
//	for k := range m { keys = append(keys, k) }
//	sort.Strings(keys)
func collectThenSort(p *Pass, rs *ast.RangeStmt, fnBody *ast.BlockStmt) bool {
	var targets []types.Object
	for _, st := range rs.Body.List {
		as, ok := st.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || (as.Tok != token.ASSIGN && as.Tok != token.DEFINE) {
			return false
		}
		lhs, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return false
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" || !isBuiltin(p.Info, fn) || len(call.Args) < 1 {
			return false
		}
		arg0, ok := call.Args[0].(*ast.Ident)
		if !ok || p.ObjectOf(arg0) == nil || p.ObjectOf(arg0) != p.ObjectOf(lhs) {
			return false
		}
		targets = append(targets, p.ObjectOf(lhs))
	}
	if len(targets) == 0 {
		return false
	}
	for _, tgt := range targets {
		if !sortedAfter(p, tgt, rs.End(), fnBody) {
			return false
		}
	}
	return true
}

// sortedAfter reports whether obj is an argument of a sort.* or
// slices.Sort* call positioned after pos within body.
func sortedAfter(p *Pass, obj types.Object, pos token.Pos, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := p.ObjectOf(pkgID).(*types.PkgName)
		if !ok {
			return true
		}
		path := pn.Imported().Path()
		if path != "sort" && path != "slices" {
			return true
		}
		for _, a := range call.Args {
			mentioned := false
			ast.Inspect(a, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && p.ObjectOf(id) == obj {
					mentioned = true
					return false
				}
				return true
			})
			if mentioned {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// exprString renders a short expression for messages.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.CallExpr:
		return exprString(x.Fun) + "(...)"
	case *ast.ParenExpr:
		return exprString(x.X)
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	}
	return "expression"
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Floatfuse flags a floating-point product added to or subtracted from
// another value without a conversion between them: `a*b + c`,
// `c - a*b`, `x += a*b`. The Go spec lets an implementation fuse such
// an expression into one multiply-add that rounds once, and the
// compiler does on arm64 (never on amd64), so virtual time and every
// printed digit would depend on the architecture. An explicit
// conversion rounds the product and forbids the fusion:
// `float64(a*b) + c`. CI's arm64 disassembly step checks the code the
// commands and examples link; this check reaches every package of the
// module, linked or not.
var Floatfuse = &Analyzer{
	Name: "floatfuse",
	Doc:  "a float product added or subtracted without a rounding conversion, which arm64 may fuse",
	Run:  runFloatfuse,
}

func runFloatfuse(p *Pass) {
	if inLint(p.RelPath) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.BinaryExpr:
				if (x.Op == token.ADD || x.Op == token.SUB) && isFloat(p, x) && !isConstant(p, x) {
					reportProduct(p, x.X)
					reportProduct(p, x.Y)
				}
			case *ast.AssignStmt:
				if (x.Tok == token.ADD_ASSIGN || x.Tok == token.SUB_ASSIGN) && len(x.Rhs) == 1 && isFloat(p, x.Lhs[0]) {
					reportProduct(p, x.Rhs[0])
				}
			}
			return true
		})
	}
}

// reportProduct reports e, an operand of a float add or subtract, when
// it is a product computed at run time, parentheses aside.
func reportProduct(p *Pass, e ast.Expr) {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = pe.X
	}
	if m, ok := e.(*ast.BinaryExpr); ok && m.Op == token.MUL && !isConstant(p, m) {
		p.Reportf(m.OpPos, "product %s*%s may fuse with the add or subtract around it on arm64; convert it first (float64(x*y) + z)",
			exprString(m.X), exprString(m.Y))
	}
}

// isFloat reports whether e has a floating-point type.
func isFloat(p *Pass, e ast.Expr) bool {
	t := p.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isConstant reports whether e is a constant expression, which the
// compiler folds: nothing is left to fuse.
func isConstant(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.Value != nil
}

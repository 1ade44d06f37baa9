package lint

import (
	"go/ast"
	"go/token"
)

// A tiny intra-function control-flow graph, built from the AST for the
// path-sensitive obligation check. Nodes of a block are the statements
// and guard expressions evaluated there, in order; successors are the
// possible continuations. Paths that end in a return reach the virtual
// exit block; paths that end in panic terminate without reaching it
// (whatever obligations they hold are moot — the process is dying).
//
// Deliberate simplifications, all conservative for the analyses here:
//
//   - deferred calls are modelled as executing at the point of the
//     defer statement (every later path sees their effect, which is
//     exactly what `defer put(x)` means for leak analysis);
//   - goto ends the path like a return (the repo's style never uses
//     goto; if one appears, the analyzers under-report rather than
//     false-positive);
//   - nested function literals are opaque at this level — the flow
//     analyzers handle captures themselves and analyze literal bodies
//     as separate functions.
type cfgGraph struct {
	entry  *cfgBlock
	exit   *cfgBlock
	blocks []*cfgBlock
}

type cfgBlock struct {
	nodes []ast.Node
	succs []*cfgBlock
}

type loopScope struct {
	label     string
	breakTo   *cfgBlock
	continues *cfgBlock // nil for switch/select scopes
}

type cfgBuilder struct {
	g      *cfgGraph
	scopes []loopScope
	// pendingLabel names the next loop/switch statement, for labeled
	// break/continue.
	pendingLabel string
}

func buildCFG(body *ast.BlockStmt) *cfgGraph {
	b := &cfgBuilder{g: &cfgGraph{}}
	b.g.exit = b.newBlock()
	b.g.entry = b.newBlock()
	end := b.stmts(body.List, b.g.entry)
	if end != nil {
		b.link(end, b.g.exit)
	}
	return b.g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) link(from, to *cfgBlock) {
	if from == nil {
		return
	}
	from.succs = append(from.succs, to)
}

// stmts threads the statement list through cur; nil means the path
// terminated (return/panic/branch) before the end of the list.
func (b *cfgBuilder) stmts(list []ast.Stmt, cur *cfgBlock) *cfgBlock {
	for _, s := range list {
		cur = b.stmt(s, cur)
		if cur == nil {
			// Remaining statements are unreachable; build them into a
			// predecessor-less block (the dataflow never visits it).
			cur = b.newBlock()
		}
	}
	return cur
}

func (b *cfgBuilder) stmt(s ast.Stmt, cur *cfgBlock) *cfgBlock {
	label := b.pendingLabel
	b.pendingLabel = ""
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmts(s.List, cur)

	case *ast.IfStmt:
		if s.Init != nil {
			cur.nodes = append(cur.nodes, s.Init)
		}
		cur.nodes = append(cur.nodes, s.Cond)
		join := b.newBlock()
		thenB := b.newBlock()
		b.link(cur, thenB)
		if end := b.stmt(s.Body, thenB); end != nil {
			b.link(end, join)
		}
		if s.Else != nil {
			elseB := b.newBlock()
			b.link(cur, elseB)
			if end := b.stmt(s.Else, elseB); end != nil {
				b.link(end, join)
			}
		} else {
			b.link(cur, join)
		}
		return join

	case *ast.ForStmt:
		if s.Init != nil {
			cur.nodes = append(cur.nodes, s.Init)
		}
		head := b.newBlock()
		after := b.newBlock()
		b.link(cur, head)
		if s.Cond != nil {
			head.nodes = append(head.nodes, s.Cond)
			b.link(head, after)
		}
		contTo := head
		var post *cfgBlock
		if s.Post != nil {
			post = b.newBlock()
			post.nodes = append(post.nodes, s.Post)
			b.link(post, head)
			contTo = post
		}
		body := b.newBlock()
		b.link(head, body)
		b.scopes = append(b.scopes, loopScope{label: label, breakTo: after, continues: contTo})
		if end := b.stmt(s.Body, body); end != nil {
			b.link(end, contTo)
		}
		b.scopes = b.scopes[:len(b.scopes)-1]
		return after

	case *ast.RangeStmt:
		cur.nodes = append(cur.nodes, s.X)
		head := b.newBlock()
		after := b.newBlock()
		b.link(cur, head)
		b.link(head, after)
		body := b.newBlock()
		b.link(head, body)
		b.scopes = append(b.scopes, loopScope{label: label, breakTo: after, continues: head})
		if end := b.stmt(s.Body, body); end != nil {
			b.link(end, head)
		}
		b.scopes = b.scopes[:len(b.scopes)-1]
		return after

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return b.switchLike(s, cur, label)

	case *ast.ReturnStmt:
		cur.nodes = append(cur.nodes, s)
		b.link(cur, b.g.exit)
		return nil

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := b.scopeFor(s.Label, true); t != nil {
				b.link(cur, t)
			}
			return nil
		case token.CONTINUE:
			if t := b.scopeFor(s.Label, false); t != nil {
				b.link(cur, t)
			}
			return nil
		case token.GOTO:
			b.link(cur, b.g.exit)
			return nil
		case token.FALLTHROUGH:
			// Handled by switchLike (the clause end links to the next
			// clause body); the statement itself ends this block.
			return cur
		}
		return cur

	case *ast.LabeledStmt:
		b.pendingLabel = s.Label.Name
		return b.stmt(s.Stmt, cur)

	case *ast.DeferStmt:
		cur.nodes = append(cur.nodes, s)
		return cur

	case *ast.ExprStmt:
		cur.nodes = append(cur.nodes, s)
		if isPanicStmt(s) {
			return nil
		}
		return cur

	default:
		cur.nodes = append(cur.nodes, s)
		return cur
	}
}

// switchLike builds switch, type-switch and select statements: guard
// work in cur, one branch block per clause, all converging on after.
func (b *cfgBuilder) switchLike(s ast.Stmt, cur *cfgBlock, label string) *cfgBlock {
	var clauses []ast.Stmt
	hasDefault := false
	switch sw := s.(type) {
	case *ast.SwitchStmt:
		if sw.Init != nil {
			cur.nodes = append(cur.nodes, sw.Init)
		}
		if sw.Tag != nil {
			cur.nodes = append(cur.nodes, sw.Tag)
		}
		clauses = sw.Body.List
	case *ast.TypeSwitchStmt:
		if sw.Init != nil {
			cur.nodes = append(cur.nodes, sw.Init)
		}
		cur.nodes = append(cur.nodes, sw.Assign)
		clauses = sw.Body.List
	case *ast.SelectStmt:
		clauses = sw.Body.List
	}

	after := b.newBlock()
	b.scopes = append(b.scopes, loopScope{label: label, breakTo: after})

	// Build clause bodies first so fallthrough can link forward.
	bodies := make([]*cfgBlock, len(clauses))
	var caseBodies [][]ast.Stmt
	for i, cl := range clauses {
		bodies[i] = b.newBlock()
		b.link(cur, bodies[i])
		switch c := cl.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				bodies[i].nodes = append(bodies[i].nodes, e)
			}
			if c.List == nil {
				hasDefault = true
			}
			caseBodies = append(caseBodies, c.Body)
		case *ast.CommClause:
			if c.Comm != nil {
				bodies[i].nodes = append(bodies[i].nodes, c.Comm)
			} else {
				hasDefault = true
			}
			caseBodies = append(caseBodies, c.Body)
		}
	}
	for i, body := range caseBodies {
		end := b.stmts(body, bodies[i])
		if end == nil {
			continue
		}
		if n := len(body); n > 0 {
			if br, ok := body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH && i+1 < len(bodies) {
				b.link(end, bodies[i+1])
				continue
			}
		}
		b.link(end, after)
	}
	if !hasDefault {
		b.link(cur, after)
	}
	b.scopes = b.scopes[:len(b.scopes)-1]
	return after
}

// scopeFor resolves the target of a break (wantBreak) or continue,
// optionally labeled.
func (b *cfgBuilder) scopeFor(label *ast.Ident, wantBreak bool) *cfgBlock {
	for i := len(b.scopes) - 1; i >= 0; i-- {
		sc := b.scopes[i]
		if label != nil && sc.label != label.Name {
			continue
		}
		if wantBreak {
			return sc.breakTo
		}
		if sc.continues != nil {
			return sc.continues
		}
		if label != nil {
			return nil // labeled continue on a non-loop: malformed
		}
	}
	return nil
}

// isPanicStmt reports whether the statement is a bare panic(...) call.
func isPanicStmt(s *ast.ExprStmt) bool {
	call, ok := s.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic" && id.Obj == nil
}

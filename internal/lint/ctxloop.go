package lint

import (
	"go/ast"
	"go/types"
)

// CtxLoop enforces the cancellation contract that lets an HTTP client
// disconnect, a job cancel or a server shutdown actually stop scan work:
//
//  1. In internal/pipeline and internal/cluster, any loop that crosses
//     scan-block or row boundaries — a loop whose body calls
//     mark.EmbedBlock / mark.ScanColumns, fills a block from a relation
//     (Relation.FillBlock) or reads from a relation.RowReader or
//     BlockReader — must contain a cancellation
//     point: a
//     ctx.Err()/ctx.Done() check, a channel receive (the stop-latch
//     pattern), or a call into a local helper that performs one.
//  2. Library packages (all of internal/) must not mint detached
//     contexts with context.Background()/context.TODO(): a detached
//     context silently severs the cancellation chain. The handful of
//     deliberate lifecycle detachments carry //wmlint:ignore directives
//     with their justification.
var CtxLoop = &Analyzer{
	Name: "ctxloop",
	Doc: "scan loops in internal/pipeline and internal/cluster must observe ctx between " +
		"chunks; internal packages must not call context.Background()/TODO() undeclared",
	Applies: pathIn("repro/internal"),
	Run:     runCtxLoop,
}

// scanLoopPackages are where rule 1 applies: the two packages that own
// multi-block scan loops.
var scanLoopPackages = pathIn("repro/internal/pipeline", "repro/internal/cluster")

func runCtxLoop(pass *Pass) error {
	info := pass.Pkg.Info
	forEachFile(pass, func(f *ast.File) {
		// Rule 2: no detached contexts in library code.
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if calleeIn(info, call, "context", "Background", "TODO") {
				pass.Reportf(call.Pos(),
					"library package calls context.%s — detached contexts sever the cancellation chain; "+
						"thread the caller's ctx (or annotate a deliberate lifecycle detachment)",
					calleeObject(info, call).Name())
			}
			return true
		})
		if !scanLoopPackages(pass.Pkg.Path) {
			return
		}
		// Rule 1: block/row-crossing loops need a cancellation point.
		// Only the OUTERMOST crossing loop is the chunk boundary: once it
		// observes ctx, everything nested runs within one chunk's budget.
		closures := collectClosures(f, info)
		funcs := collectFuncDecls(f)
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.ForStmt:
				body = loop.Body
			case *ast.RangeStmt:
				body = loop.Body
			default:
				return true
			}
			if !loopCrossesBlocks(body, info) {
				return true
			}
			if !hasCancelPoint(body, info, closures, funcs, true) {
				pass.Reportf(n.Pos(),
					"loop crosses scan-block/row boundaries without a cancellation point — "+
						"check ctx.Err()/ctx.Done() (or receive on a stop channel) between chunks")
			}
			return false // nested loops are within this chunk boundary
		})
	})
	return nil
}

// loopCrossesBlocks reports whether a loop body (excluding nested
// function literals and go statements, whose work runs elsewhere)
// advances through scan blocks or stream rows.
func loopCrossesBlocks(body *ast.BlockStmt, info *types.Info) bool {
	found := false
	inspectSameGoroutine(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return
		}
		if methodOn(info, call, "repro/internal/mark", "EmbedBlock") ||
			methodOn(info, call, "repro/internal/mark", "ScanColumns") ||
			methodOn(info, call, "repro/internal/relation", "FillBlock", "Relation") {
			found = true
		}
		if methodOn(info, call, "repro/internal/relation", "Read",
			"RowReader", "CSVRowReader", "JSONLRowReader") {
			found = true
		}
		if methodOn(info, call, "repro/internal/relation", "ReadBlock",
			"BlockReader", "RawShardSource", "RelationReader", "CSVBlockReader", "JSONLBlockReader", "JSONLPayloadReader") ||
			methodOn(info, call, "repro/internal/relation", "SkimRecords",
				"RawShardSource", "CSVBlockReader", "JSONLBlockReader", "JSONLPayloadReader") ||
			methodOn(info, call, "repro/internal/relation", "SkimSpan", "JSONLPayloadReader") {
			found = true
		}
	})
	return found
}

// hasCancelPoint reports whether the node contains a cancellation
// observation: ctx.Err()/ctx.Done() on a context.Context value, a
// channel receive (stop-latch / select), or — when followCalls — a call
// to a same-file function or closure whose own body contains one.
func hasCancelPoint(node ast.Node, info *types.Info, closures map[types.Object]*ast.FuncLit, funcs map[string]*ast.FuncDecl, followCalls bool) bool {
	found := false
	inspectSameGoroutine(node, func(n ast.Node) {
		if found {
			return
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				if (sel.Sel.Name == "Err" || sel.Sel.Name == "Done") && isContextExpr(info, sel.X) {
					found = true
					return
				}
			}
			if !followCalls {
				return
			}
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					if lit, ok := closures[obj]; ok && hasCancelPoint(lit.Body, info, closures, funcs, false) {
						found = true
						return
					}
				}
				if fd, ok := funcs[id.Name]; ok && fd.Body != nil &&
					hasCancelPoint(fd.Body, info, closures, funcs, false) {
					found = true
					return
				}
			}
		case *ast.UnaryExpr:
			// <-ch: any channel receive is a cancellation-capable wait
			// (the stop-latch pattern ties it to ctx elsewhere).
			if x.Op.String() == "<-" {
				found = true
			}
		case *ast.SelectStmt:
			found = true
		}
	})
	return found
}

// collectClosures maps variables to the function literals assigned to
// them anywhere in the file, so `stopped := func() bool {...}` can be
// looked through at its call sites.
func collectClosures(f *ast.File, info *types.Info) map[types.Object]*ast.FuncLit {
	out := make(map[types.Object]*ast.FuncLit)
	ast.Inspect(f, func(n ast.Node) bool {
		st, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range st.Rhs {
			lit, ok := rhs.(*ast.FuncLit)
			if !ok || i >= len(st.Lhs) {
				continue
			}
			id, ok := st.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if obj := info.Defs[id]; obj != nil {
				out[obj] = lit
			} else if obj := info.Uses[id]; obj != nil {
				out[obj] = lit
			}
		}
		return true
	})
	return out
}

// collectFuncDecls indexes the file's function declarations by name.
func collectFuncDecls(f *ast.File) map[string]*ast.FuncDecl {
	out := make(map[string]*ast.FuncDecl)
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok {
			out[fd.Name.Name] = fd
		}
	}
	return out
}

// inspectSameGoroutine walks node but does not descend into function
// literals or go statements: their bodies execute on other goroutines
// (or later), so nothing inside them counts for the enclosing loop.
func inspectSameGoroutine(node ast.Node, fn func(ast.Node)) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

package lint

import (
	"go/ast"
	"go/types"
)

// ArenaCopy guards the zero-allocation ingestion contract: inside the
// block-pipeline packages, a string(...) conversion of an arena-backed
// byte slice silently reintroduces the per-row allocation the columnar
// path exists to eliminate. Arena-backed means derived from the
// relation block accessors — Column.Value, Block.Value, Column.Raw —
// whose results alias pooled block storage. The analyzer tracks simple
// local aliases (v := col.Value(i), data, _ := col.Raw(), subslices of
// either) and flags conversions of any of them to a string type.
//
// Two shapes are exempt: a conversion used directly as a map index
// (m[string(v)] — the compiler keeps it on the stack, the idiom behind
// Domain.IndexBytes), and Column.String, the one sanctioned
// materializer, which carries the //wmlint:ignore directive.
var ArenaCopy = &Analyzer{
	Name: "arenacopy",
	Doc: "string(...) conversions of arena-backed block bytes allocate per row; " +
		"hash and classify on the byte view (Kernel.HashColumn, Domain.IndexBytes) " +
		"or materialize through Column.String",
	Applies: pathIn("repro/internal/relation", "repro/internal/pipeline", "repro/internal/mark"),
	Run:     runArenaCopy,
}

const relationPath = "repro/internal/relation"

func runArenaCopy(pass *Pass) error {
	info := pass.Pkg.Info
	forEachFile(pass, func(f *ast.File) {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkArenaCopies(pass, info, fd.Body)
			}
		}
	})
	return nil
}

// arenaSourceCall reports whether call returns bytes aliasing a block
// arena: Column.Value / Block.Value (a row's bytes). Column.Raw is
// handled at its assignment site, since only its first result is the
// arena.
func arenaSourceCall(info *types.Info, call *ast.CallExpr) bool {
	return methodOn(info, call, relationPath, "Value", "Column", "Block")
}

// checkArenaCopies flags arena-to-string conversions within one
// function body (nested literals included — object identity keeps the
// alias sets from colliding).
func checkArenaCopies(pass *Pass, info *types.Info, body *ast.BlockStmt) {
	// Alias pass, to a fixed point: variables assigned from an arena
	// source, from another tracked variable, or from a subslice of one.
	tracked := make(map[types.Object]bool)
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			st, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
				// data, offs := col.Raw(): the first result is the arena.
				if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok &&
					methodOn(info, call, relationPath, "Raw", "Column") {
					changed = trackArenaIdent(info, tracked, st.Lhs[0]) || changed
				}
				return true
			}
			for i, rhs := range st.Rhs {
				if i < len(st.Lhs) && isArenaExpr(info, tracked, rhs) {
					changed = trackArenaIdent(info, tracked, st.Lhs[i]) || changed
				}
			}
			return true
		})
	}

	// Conversions appearing directly as a map index do not allocate —
	// the compiler's m[string(b)] fast path — so they are exempt.
	exempt := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		ix, ok := n.(*ast.IndexExpr)
		if !ok {
			return true
		}
		if tv, ok := info.Types[ix.X]; ok {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				if call, ok := ast.Unparen(ix.Index).(*ast.CallExpr); ok {
					exempt[call] = true
				}
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || exempt[call] || len(call.Args) != 1 || !isConversion(info, call) {
			return true
		}
		tv, ok := info.Types[call.Fun]
		if !ok {
			return true
		}
		if basic, ok := tv.Type.Underlying().(*types.Basic); !ok || basic.Kind() != types.String {
			return true
		}
		if isArenaExpr(info, tracked, call.Args[0]) {
			pass.Reportf(call.Pos(),
				"string conversion copies arena-backed block bytes (allocates per row) — "+
					"use the byte view (Kernel.HashColumn, Domain.IndexBytes, direct map index) "+
					"or materialize via Column.String")
		}
		return true
	})
}

// isArenaExpr reports whether e evaluates to arena-aliasing bytes: an
// arena source call, a tracked alias, or a subslice of either.
func isArenaExpr(info *types.Info, tracked map[types.Object]bool, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		return arenaSourceCall(info, x)
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		return obj != nil && tracked[obj]
	case *ast.SliceExpr:
		return isArenaExpr(info, tracked, x.X)
	}
	return false
}

// trackArenaIdent marks the assigned identifier as arena-aliasing,
// reporting whether the set grew.
func trackArenaIdent(info *types.Info, tracked map[types.Object]bool, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return false
	}
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	if obj == nil || tracked[obj] {
		return false
	}
	tracked[obj] = true
	return true
}

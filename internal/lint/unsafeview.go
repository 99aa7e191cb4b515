package lint

import (
	"go/ast"
	"go/types"
)

// UnsafeView guards the zero-copy views: unsafe.String and unsafe.Slice
// alias memory without copying it, so each use is sound only under an
// invariant the compiler cannot check — that the viewed bytes are never
// written while the view lives (for relation arenas: bytes are never
// rewritten once a row refers to them). The analyzer allows them only
// inside a function whose doc comment or body carries a
// //wmlint:ignore unsafeview directive stating that invariant; a use
// anywhere else, package-level initializers included, is a finding.
var UnsafeView = &Analyzer{
	Name: "unsafeview",
	Doc: "unsafe.String/unsafe.Slice only in functions carrying a " +
		"//wmlint:ignore unsafeview directive that states the invariant relied on",
	Run: runUnsafeView,
}

func runUnsafeView(pass *Pass) error {
	info := pass.Pkg.Info
	forEachFile(pass, func(f *ast.File) {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && carriesDirective(f, fd, "unsafeview") {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if name := unsafeViewCall(info, call); name != "" {
					pass.Reportf(call.Pos(),
						"unsafe.%s outside a function carrying a //wmlint:ignore unsafeview directive "+
							"that states the invariant the zero-copy view relies on", name)
				}
				return true
			})
		}
	})
	return nil
}

// unsafeViewCall returns "String" or "Slice" when call is unsafe.String
// or unsafe.Slice, else "".
func unsafeViewCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "String" && sel.Sel.Name != "Slice") {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if pkg, ok := info.Uses[id].(*types.PkgName); ok && pkg.Imported().Path() == "unsafe" {
		return sel.Sel.Name
	}
	return ""
}

// carriesDirective reports whether fd's doc comment or body holds a
// //wmlint:ignore directive, with a reason, for the named analyzer.
func carriesDirective(f *ast.File, fd *ast.FuncDecl, analyzer string) bool {
	start := fd.Pos()
	if fd.Doc != nil {
		start = fd.Doc.Pos()
	}
	for _, cg := range f.Comments {
		if cg.End() < start || cg.Pos() > fd.End() {
			continue
		}
		for _, c := range cg.List {
			if m := ignoreDirective.FindStringSubmatch(c.Text); m != nil && m[1] == analyzer {
				return true
			}
		}
	}
	return false
}

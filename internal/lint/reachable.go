package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Reachable makes every exported symbol under internal/ earn its place:
// an exported package-level func, method, type, var or const declared in
// a non-test file must be referenced by some non-test file of the
// loaded module outside its own declaration (a type's declaration
// includes its methods). Test-only code belongs in _test.go files.
//
// Two kinds of declaration are never reported. A method whose name is a
// method of some interface type in the dependency closure may be reached
// through that interface, which a reference index cannot see. A
// declaration whose doc comment carries //wmlint:ignore reachable
// <reason> names its caller outside the module's view (the separate
// perfbench module) or why it stays (a test oracle, a paper feature the
// Monte-Carlo suite is to drive); the same directive without a reason is
// itself a finding.
var Reachable = &Analyzer{
	Name: "reachable",
	Doc: "exported internal/ funcs, methods, types, vars and consts must be referenced by a " +
		"non-test file outside their declaration, or carry a reasoned //wmlint:ignore reachable directive",
	Applies: pathIn("repro/internal"),
	Run:     runReachable,
}

// reachDecl is one candidate declaration: its name, the position ranges
// that count as its own declaration, and whether a reference outside
// them has been seen.
type reachDecl struct {
	kind    string
	name    *ast.Ident
	own     [][2]token.Pos
	reached bool
}

func runReachable(pass *Pass) error {
	pkg := pass.Pkg
	decls := make(map[string]*reachDecl)
	var methods []*ast.FuncDecl
	add := func(kind string, name *ast.Ident, node ast.Node, docs ...*ast.CommentGroup) {
		if !name.IsExported() || isTestFile(pkg.Fset, name.Pos()) {
			return
		}
		switch reachableDirective(docs...) {
		case "bare":
			pass.Reportf(name.Pos(), "//wmlint:ignore reachable without a reason: name the caller or why %s stays", name.Name)
			return
		case "reasoned":
			return
		}
		if obj := pkg.Info.Defs[name]; obj != nil {
			decls[objectKey(obj)] = &reachDecl{kind: kind, name: name, own: [][2]token.Pos{{node.Pos(), node.End()}}}
		}
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				kind := "func"
				if decl.Recv != nil {
					kind = "method"
					methods = append(methods, decl)
				}
				add(kind, decl.Name, decl, decl.Doc)
			case *ast.GenDecl:
				kind := strings.ToLower(decl.Tok.String())
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(kind, spec.Name, spec, decl.Doc, spec.Doc, spec.Comment)
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							add(kind, name, spec, decl.Doc, spec.Doc, spec.Comment)
						}
					}
				}
			}
		}
	}
	// A type's methods are part of its declaration: references from its
	// own methods do not keep a type alive.
	for _, fd := range methods {
		if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
			if n := namedType(fn.Signature().Recv().Type()); n != nil {
				if d := decls[objectKey(n.Obj())]; d != nil {
					d.own = append(d.own, [2]token.Pos{fd.Pos(), fd.End()})
				}
			}
		}
	}
	for _, p := range pass.Program {
		for id, obj := range p.Info.Uses {
			if obj.Pkg() == nil || obj.Pkg().Path() != pkg.Path || isTestFile(p.Fset, id.Pos()) {
				continue
			}
			if d := decls[objectKey(obj)]; d != nil && !covers(d.own, id.Pos()) {
				d.reached = true
			}
		}
	}
	ifaceMethods := pkg.loader.interfaceMethods()
	for _, d := range decls {
		if d.reached || (d.kind == "method" && ifaceMethods[d.name.Name]) {
			continue
		}
		pass.Reportf(d.name.Pos(), "exported %s %s is referenced by no non-test file outside its declaration: "+
			"delete it or move it into a _test.go file, or name its caller with //wmlint:ignore reachable <reason>",
			d.kind, d.name.Name)
	}
	return nil
}

// objectKey names a package-level object or a method across separately
// type-checked packages: the object a package sees through export data
// is not the one its defining package's source check created, so
// identity is the import path, the receiver's type name and the name.
// Fields and locals get a key no declaration has.
func objectKey(obj types.Object) string {
	path := obj.Pkg().Path()
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		if n := namedType(fn.Signature().Recv().Type()); n != nil {
			return path + "." + n.Origin().Obj().Name() + "." + fn.Name()
		}
		return ""
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return path + "." + obj.Name()
}

func covers(ranges [][2]token.Pos, pos token.Pos) bool {
	for _, r := range ranges {
		if r[0] <= pos && pos < r[1] {
			return true
		}
	}
	return false
}

func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// reachableDirective returns "reasoned" or "bare" when the doc comments
// carry a //wmlint:ignore reachable directive with or without a reason,
// else "".
func reachableDirective(docs ...*ast.CommentGroup) string {
	for _, cg := range docs {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if m := ignoreDirective.FindStringSubmatch(c.Text); m != nil && m[1] == "reachable" {
				return "reasoned"
			}
			if strings.TrimSpace(strings.TrimPrefix(c.Text, "//wmlint:ignore")) == "reachable" {
				return "bare"
			}
		}
	}
	return ""
}

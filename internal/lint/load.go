package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one type-checked, non-test view of a module package: the
// parsed GoFiles plus the go/types artifacts analyzers consume. Test
// files are deliberately absent — every invariant the suite enforces is
// about production code, and the grep gates this framework replaced
// excluded *_test.go for the same reason.
type Package struct {
	// Path is the import path analyzers gate on. For fixture packages it
	// is the path the fixture claims via its //wmlint:fixture directive,
	// not a real location.
	Path string
	// Name is the package name from the source.
	Name string
	// Dir is the directory the files were read from.
	Dir string
	// Fset positions every token.Pos in Files.
	Fset *token.FileSet
	// Files are the parsed non-test files, comments included.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's expression/object tables.
	Info *types.Info
	// Imports are the package's direct imports, as written in source.
	Imports []string

	stdlib map[string]bool
	loader *Loader
}

// IsStdlib reports whether an import path names a standard-library
// package. Loaded modules answer from `go list` metadata; fixture
// packages fall back to the conventional heuristic (no dot in the first
// path element).
func (p *Package) IsStdlib(path string) bool {
	if p.stdlib != nil {
		if std, ok := p.stdlib[path]; ok {
			return std
		}
	}
	first := path
	if i := strings.IndexByte(path, '/'); i >= 0 {
		first = path[:i]
	}
	return !strings.Contains(first, ".") && !strings.HasPrefix(path, "repro/")
}

// listPkg is the subset of `go list -json` output the loader needs.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	Standard   bool
	GoFiles    []string
	Imports    []string
	Module     *struct{ Path, Dir string }
	Error      *struct{ Err string }
	DepsErrors []*struct{ Err string }
}

// A Loader resolves imports against compiler export data produced by
// `go list -export`. One Loader serves both the module load and any
// fixture packages type-checked afterwards (fixtures import real module
// packages, so they need the same resolution table).
type Loader struct {
	Fset    *token.FileSet
	exports map[string]string // import path -> export data file
	stdlib  map[string]bool   // import path -> is standard library
	imp     types.Importer
	// ifaceMethods memoizes interfaceMethods.
	ifaceMethods map[string]bool
}

// NewLoader builds a Loader for the module rooted at dir by listing the
// dependency closure of the given patterns with export data.
func NewLoader(dir string, patterns ...string) (*Loader, []*listPkg, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(out)
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			_ = cmd.Wait()
			return nil, nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	if err := cmd.Wait(); err != nil {
		return nil, nil, fmt.Errorf("lint: go list: %w\n%s", err, stderr.String())
	}
	l := &Loader{
		Fset:    token.NewFileSet(),
		exports: make(map[string]string, len(pkgs)),
		stdlib:  make(map[string]bool, len(pkgs)),
	}
	for _, p := range pkgs {
		l.stdlib[p.ImportPath] = p.Standard
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
	}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := l.exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
	l.imp = importer.ForCompiler(l.Fset, "gc", lookup)
	return l, pkgs, nil
}

// check parses and type-checks one directory's worth of files as the
// package path asPath.
func (l *Loader) check(dir, asPath string, fileNames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range fileNames {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, errors.New("lint: no files")
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer:    l.imp,
		FakeImportC: true,
		Error:       func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(asPath, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %w", asPath, errors.Join(typeErrs...))
	}
	var imports []string
	seen := make(map[string]bool)
	for _, f := range files {
		for _, spec := range f.Imports {
			path := strings.Trim(spec.Path.Value, `"`)
			if !seen[path] {
				seen[path] = true
				imports = append(imports, path)
			}
		}
	}
	sort.Strings(imports)
	return &Package{
		Path:    asPath,
		Name:    tpkg.Name(),
		Dir:     dir,
		Fset:    l.Fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
		Imports: imports,
		stdlib:  l.stdlib,
		loader:  l,
	}, nil
}

// Load discovers, parses and type-checks the module packages matching
// patterns under dir. Standard-library and external packages in the
// dependency closure resolve through export data but are not returned:
// only packages of the surrounding module are analysis targets.
func Load(dir string, patterns ...string) ([]*Package, *Loader, error) {
	l, listed, err := NewLoader(dir, patterns...)
	if err != nil {
		return nil, nil, err
	}
	var out []*Package
	for _, p := range listed {
		if p.Standard || p.Module == nil || len(p.GoFiles) == 0 {
			continue
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkg, err := l.check(p.Dir, p.ImportPath, p.GoFiles)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, l, nil
}

// fixtureDirective names the import path a fixture package pretends to
// live at, e.g. "//wmlint:fixture repro/internal/server". Analyzer
// applicability is decided against this path.
const fixtureDirective = "//wmlint:fixture "

// LoadFixture parses and type-checks every .go file in dir as one
// package. The first file carrying a //wmlint:fixture directive decides
// the package's claimed import path; without one the path defaults to
// the directory name.
//
//wmlint:ignore reachable the fixture harness: lint_test.go type-checks every testdata package through it
func (l *Loader) LoadFixture(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	asPath := filepath.Base(dir)
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, fixtureDirective) {
				asPath = strings.TrimSpace(strings.TrimPrefix(line, fixtureDirective))
			}
		}
	}
	return l.check(dir, asPath, names)
}

// interfaceMethods returns the method names of every named interface
// type declared in the listed dependency closure, plus the universe's
// error. Export data records each package's own types but not always its
// imports, so the closure comes from `go list`, not from walking
// types.Package.Imports.
func (l *Loader) interfaceMethods() map[string]bool {
	if l.ifaceMethods != nil {
		return l.ifaceMethods
	}
	names := map[string]bool{"Error": true}
	for path := range l.exports {
		tp, err := l.imp.Import(path)
		if err != nil {
			continue
		}
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if it, ok := scope.Lookup(name).Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					names[it.Method(i).Name()] = true
				}
			}
		}
	}
	l.ifaceMethods = names
	return names
}

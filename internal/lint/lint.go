// Package lint is a stdlib-only static-analysis framework for the
// repository's own invariants. It drives go/parser + go/types over the
// module's packages (discovered with `go list -json`, type-checked
// against compiler export data — no golang.org/x/tools dependency, so
// go.mod stays third-party-free) and runs a suite of project-specific
// analyzers over the typed ASTs.
//
// The analyzers encode the invariants the paper's security argument and
// the cluster's correctness argument rest on:
//
//   - secretflow:   watermark key material must never reach logs,
//     metrics, error strings or unsanctioned wire structs — ownership is
//     provable only while the keyed secret stays secret.
//   - wiretypes:    internal/server is a route layer; wire shapes live
//     in internal/api.
//   - importgate:   per-package import allowlists (obs and keyhash are
//     stdlib-only; api must not import its implementations).
//   - ctxloop:      scan loops in pipeline and cluster must observe
//     cancellation between chunks; library packages must not mint
//     detached contexts.
//   - slogonly:     service layers log through log/slog, never
//     log.Printf or fmt.Print*.
//   - determinism:  tally-merge/report code must stay bit-identical
//     across cluster topologies — no clocks, no randomness, no
//     map-order-dependent iteration.
//   - arenacopy:    the zero-allocation block pipeline must not convert
//     arena-backed byte slices to strings — that reintroduces the
//     per-row allocation the columnar path eliminates.
//   - spanend:      every trace span started in internal/ must be
//     deterministically ended — End is the publication point, so a
//     missed End silently drops the span's subtree from every trace.
//   - unsafeview:   unsafe.String/unsafe.Slice zero-copy views appear
//     only in functions whose //wmlint:ignore unsafeview directive
//     states the invariant they rely on (for relation arenas: bytes
//     are never rewritten once referenced).
//   - reachable:    every exported func, method, type, var and const
//     under internal/ is referenced by a non-test file outside its own
//     declaration — test-only code lives in _test.go files — unless a
//     //wmlint:ignore reachable directive names its caller outside the
//     module's view or why it stays.
//
// cmd/wmlint is the multichecker binary; CI runs it in place of the
// shell grep gates it replaced.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer is one named invariant check. Run is invoked once per
// loaded package the analyzer applies to, and reports findings through
// the Pass.
type Analyzer struct {
	// Name is the analyzer's identifier — what -only selects, what
	// diagnostics carry, and what a //wmlint:ignore directive names.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Applies reports whether the analyzer runs on the package with the
	// given import path. nil means every package.
	Applies func(pkgPath string) bool
	// Run performs the check. Diagnostics go through pass.Reportf; an
	// error aborts the whole lint run (reserved for internal failures,
	// not findings).
	Run func(pass *Pass) error
}

// A Diagnostic is one positioned finding.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Pkg *Package
	// Program is every package the run loaded, Pkg included: the
	// whole-module view an analyzer needs to see references made from
	// other packages.
	Program  []*Package
	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		SecretFlow,
		WireTypes,
		ImportGate,
		CtxLoop,
		SlogOnly,
		Determinism,
		ArenaCopy,
		SpanEnd,
		UnsafeView,
		Reachable,
	}
}

// ByName resolves a comma-separated analyzer selection against All.
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("lint: unknown analyzer %q", name)
		}
	}
	return out, nil
}

// Run executes the analyzers over the packages and returns the surviving
// diagnostics sorted by position. Findings on a line carrying (or
// directly following) a matching //wmlint:ignore directive are
// suppressed.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Applies != nil && !a.Applies(pkg.Path) {
				continue
			}
			pass := &Pass{Pkg: pkg, Program: pkgs, analyzer: a, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	diags = suppress(diags, pkgs)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// ignoreDirective matches "//wmlint:ignore <analyzer> [reason...]".
// A reason is required: a suppression without a recorded justification
// is itself a finding.
var ignoreDirective = regexp.MustCompile(`^//wmlint:ignore\s+([a-z]+)\s+(\S.*)$`)

// suppress drops diagnostics covered by //wmlint:ignore directives. A
// directive covers its own line (trailing comment) and the line after it
// (comment on its own line above the offending statement).
func suppress(diags []Diagnostic, pkgs []*Package) []Diagnostic {
	type key struct {
		file     string
		line     int
		analyzer string
	}
	ignored := make(map[key]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := ignoreDirective.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					ignored[key{pos.Filename, pos.Line, m[1]}] = true
					ignored[key{pos.Filename, pos.Line + 1, m[1]}] = true
				}
			}
		}
	}
	if len(ignored) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		if ignored[key{d.File, d.Line, d.Analyzer}] {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

// forEachFile walks every non-test file of the pass's package.
func forEachFile(pass *Pass, fn func(*ast.File)) {
	for _, f := range pass.Pkg.Files {
		fn(f)
	}
}

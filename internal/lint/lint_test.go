package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixtureCases maps each testdata fixture package to the analyzer its
// "// want `regex`" comments are written against. Every want comment
// must be matched by a diagnostic on its line, and every diagnostic must
// be claimed by a want comment — positions are part of the contract.
var fixtureCases = []struct {
	dir      string
	analyzer string
}{
	{"secretflow", "secretflow"},
	{"wiretypes", "wiretypes"},
	{"importgate", "importgate"},
	{"importgate_api", "importgate"},
	{"ctxloop", "ctxloop"},
	{"slogonly", "slogonly"},
	{"determinism", "determinism"},
	{"arenacopy", "arenacopy"},
	{"spanend", "spanend"},
	{"unsafeview", "unsafeview"},
	{"reachable", "reachable"},
}

// wantComment extracts the expectation regex from a fixture line.
var wantComment = regexp.MustCompile("// want `([^`]+)`")

// expectation is one want comment: a diagnostic matching re must be
// reported at file:line.
type expectation struct {
	file string // base name
	line int
	re   *regexp.Regexp
}

func collectWants(t *testing.T, dir string) []expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantComment.FindAllStringSubmatch(sc.Text(), -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regex %q: %v", e.Name(), line, m[1], err)
				}
				wants = append(wants, expectation{e.Name(), line, re})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if len(wants) == 0 {
		t.Fatalf("%s: no want comments — fixture asserts nothing", dir)
	}
	return wants
}

// TestFixtures type-checks every testdata package against the real
// module's export data, runs its analyzer, and diffs positioned
// diagnostics against the want comments.
func TestFixtures(t *testing.T) {
	loader, _, err := NewLoader("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range fixtureCases {
		t.Run(tc.dir, func(t *testing.T) {
			dir := filepath.Join("testdata", tc.dir)
			pkg, err := loader.LoadFixture(dir)
			if err != nil {
				t.Fatal(err)
			}
			analyzers, err := ByName(tc.analyzer)
			if err != nil {
				t.Fatal(err)
			}
			if analyzers[0].Applies != nil && !analyzers[0].Applies(pkg.Path) {
				t.Fatalf("analyzer %s does not apply to fixture path %s — check the //wmlint:fixture directive",
					tc.analyzer, pkg.Path)
			}
			diags, err := Run([]*Package{pkg}, analyzers)
			if err != nil {
				t.Fatal(err)
			}
			wants := collectWants(t, dir)
			claimed := make([]bool, len(diags))
			for _, w := range wants {
				matched := false
				for i, d := range diags {
					if claimed[i] || filepath.Base(d.File) != w.file || d.Line != w.line {
						continue
					}
					if w.re.MatchString(d.Message) {
						claimed[i] = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("%s:%d: want diagnostic matching %q, got none", w.file, w.line, w.re)
				}
			}
			for i, d := range diags {
				if !claimed[i] {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
		})
	}
}

// TestRepoClean is the dogfood gate: the full analyzer suite over the
// real module must report nothing. Every deliberate exception carries a
// //wmlint:ignore directive with its justification, so a finding here is
// either a regression or an undocumented exception — both are failures.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, _, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("repo not lint-clean: %s", d)
	}
}

func TestByName(t *testing.T) {
	got, err := ByName("secretflow, ctxloop")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "secretflow" || got[1].Name != "ctxloop" {
		t.Fatalf("ByName selection wrong: %+v", got)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "ctxloop", File: "x.go", Line: 3, Col: 7, Message: "m"}
	if got, want := d.String(), "x.go:3:7: m (ctxloop)"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

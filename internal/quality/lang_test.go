package quality

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

func langRelation(t *testing.T) *relation.Relation {
	t.Helper()
	s := relation.MustSchema([]relation.Attribute{
		{Name: "k", Type: relation.TypeInt},
		{Name: "city", Type: relation.TypeString, Categorical: true},
		{Name: "tier", Type: relation.TypeString, Categorical: true},
	}, "k")
	r := relation.New(s)
	cities := []string{"atlanta", "boston", "chicago", "denver"}
	tiers := []string{"gold", "silver"}
	for i := 0; i < 40; i++ {
		r.MustAppend(relation.Tuple{strconv.Itoa(i), cities[i%4], tiers[i%2]})
	}
	return r
}

func mustParse(t *testing.T, src string, r *relation.Relation) Constraint {
	t.Helper()
	c, err := ParseConstraint("test", src, r)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return c
}

func TestLangAlteredFraction(t *testing.T) {
	r := langRelation(t)
	a := NewAssessor(mustParse(t, "altered_fraction() <= 0.05", r)) // 2 of 40
	for i := 0; i < 5; i++ {
		_ = a.Apply(r, i, "city", "elsewhere") // not a current value: no no-ops
	}
	if a.applied != 2 {
		t.Fatalf("committed %d alterations, want 2", a.applied)
	}
}

func TestLangFreqConstraint(t *testing.T) {
	r := langRelation(t) // 10 of each city = freq 0.25
	a := NewAssessor(mustParse(t, "freq('city', 'atlanta') >= 0.2", r))
	// Moving atlanta -> boston drops atlanta toward the 0.2 floor: two
	// moves allowed (0.25 → 0.225 → 0.2), the third violates.
	moved := 0
	for i := 0; i < 40 && moved < 3; i += 4 { // rows ≡ 0 mod 4 are atlanta
		if err := a.Apply(r, i, "city", "boston"); err == nil {
			moved++
		} else {
			break
		}
	}
	if moved != 2 {
		t.Fatalf("moved %d atlanta rows, want 2", moved)
	}
}

func TestLangCountAndDistinct(t *testing.T) {
	r := langRelation(t)
	c := mustParse(t, "count('tier', 'gold') >= 19 and distinct('tier') = 2", r)
	a := NewAssessor(c)
	// First demotion: gold 20 -> 19, allowed.
	if err := a.Apply(r, 0, "tier", "silver"); err != nil {
		t.Fatalf("first demotion vetoed: %v", err)
	}
	// Second demotion: would hit 18 < 19, vetoed.
	var verr *ViolationError
	if err := a.Apply(r, 2, "tier", "silver"); !errors.As(err, &verr) {
		t.Fatalf("second demotion error %v", err)
	}
}

func TestLangFreqDrift(t *testing.T) {
	r := langRelation(t)
	a := NewAssessor(mustParse(t, "freq_drift('city') <= 0.06", r))
	// One move drifts by 2/40 = 0.05 ≤ 0.06; a second hits 0.1.
	if err := a.Apply(r, 0, "city", "boston"); err != nil {
		t.Fatalf("first move vetoed: %v", err)
	}
	var verr *ViolationError
	if err := a.Apply(r, 4, "city", "boston"); !errors.As(err, &verr) {
		t.Fatalf("second move error %v", err)
	}
	// Rollback restores the full drift budget.
	if err := a.UndoAll(r); err != nil {
		t.Fatal(err)
	}
	if err := a.Apply(r, 0, "city", "boston"); err != nil {
		t.Fatalf("budget not restored: %v", err)
	}
}

func TestLangChangedAndStringEquality(t *testing.T) {
	r := langRelation(t)
	// tier may only ever be set to 'silver'; city is unconstrained.
	c := mustParse(t, "not changed('tier') or new() = 'silver'", r)
	a := NewAssessor(c)
	if err := a.Apply(r, 0, "city", "boston"); err != nil {
		t.Fatalf("city change vetoed: %v", err)
	}
	if err := a.Apply(r, 1, "tier", "silver"); err != nil {
		t.Fatalf("tier->silver vetoed: %v", err)
	}
	var verr *ViolationError
	if err := a.Apply(r, 0, "tier", "platinum"); !errors.As(err, &verr) {
		t.Fatalf("tier->platinum error %v", err)
	}
}

func TestLangOldNewComparison(t *testing.T) {
	r := langRelation(t)
	// Forbid "demotions": old() = 'gold' vetoes.
	c := mustParse(t, "not (changed('tier') and old() = 'gold')", r)
	a := NewAssessor(c)
	// Row 1 is silver: promoting is fine.
	if err := a.Apply(r, 1, "tier", "gold"); err != nil {
		t.Fatalf("promotion vetoed: %v", err)
	}
	// Row 0 is gold: any change vetoed.
	var verr *ViolationError
	if err := a.Apply(r, 0, "tier", "silver"); !errors.As(err, &verr) {
		t.Fatalf("demotion error %v", err)
	}
}

func TestLangArithmeticAndPrecedence(t *testing.T) {
	r := langRelation(t)
	cases := []struct {
		src  string
		pass bool
	}{
		{"1 + 2 * 3 = 7", true},
		{"(1 + 2) * 3 = 9", true},
		{"10 / 4 = 2.5", true},
		{"-3 + 5 > 0", true},
		{"2 < 1 or 3 > 2", true},
		{"2 < 1 and 3 > 2", false},
		{"not 2 < 1", true},
		{"rows() = 40", true},
		{"rows() * 2 = 80", true},
		{"1 = 1 and 2 = 2 and 3 = 3", true},
		{"1 != 2", true},
		{"1 <> 1", false},
		{"'a' = 'a'", true},
		{"'a' != 'b'", true},
		{"'a' = 1", false}, // cross-type equality is false
	}
	for _, tc := range cases {
		c := mustParse(t, tc.src, r)
		a := NewAssessor(c)
		err := a.Apply(r.Clone(), 0, "city", "boston")
		var verr *ViolationError
		got := !errors.As(err, &verr) && err == nil
		if got != tc.pass {
			t.Errorf("%q: pass=%v, want %v (err=%v)", tc.src, got, tc.pass, err)
		}
	}
}

func TestLangParseErrors(t *testing.T) {
	r := langRelation(t)
	bad := []string{
		"",
		"1 +",
		"(1 = 1",
		"1 = 1)",
		"nosuchfunc() = 1",
		"count('city') = 1",           // wrong arity
		"count('ghost', 'x') = 1",     // unknown attribute
		"freq('city', 'a') = 'a' = 1", // chained comparison
		"'unterminated",
		"1 === 2",
		"1 & 2",
		"changed('city')! = 1",
		"freq_drift('city')",    // number where boolean needed
		"'str' + 1 = 2",         // string arithmetic
		"1 and 2",               // non-boolean operands
		"freq(rows(), 'x') > 0", // non-literal attribute argument
	}
	for _, src := range bad {
		if _, err := ParseConstraint("bad", src, r); err == nil {
			t.Errorf("%q accepted", src)
		}
	}
}

func TestLangCaseInsensitiveKeywords(t *testing.T) {
	r := langRelation(t)
	c := mustParse(t, "1 = 1 AND NOT 2 = 3 OR 1 = 2", r)
	a := NewAssessor(c)
	if err := a.Apply(r, 0, "city", "boston"); err != nil {
		t.Fatalf("uppercase keywords failed: %v", err)
	}
}

func TestLangHistogramConsistencyAfterChurn(t *testing.T) {
	// Property: after arbitrary committed/vetoed/rolled-back alterations,
	// the constraint's incremental histogram matches a fresh recount.
	r := langRelation(t)
	c := mustParse(t, "count('city', 'atlanta') >= 5", r).(*exprConstraint)
	a := NewAssessor(c)
	f := func(rows []uint8, undo bool) bool {
		cp := len(a.log)
		for _, rw := range rows {
			row := int(rw) % r.Len()
			_ = a.Apply(r, row, "city", []string{"atlanta", "boston", "chicago"}[int(rw)%3])
		}
		if undo {
			if err := a.rollbackTo(r, cp); err != nil {
				return false
			}
		}
		fresh, err := relation.HistogramOf(r, "city")
		if err != nil {
			return false
		}
		for _, label := range fresh.Labels() {
			if fresh.Count(label) != c.hists["city"].Count(label) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLangIntegrationWithEmbedding(t *testing.T) {
	// The paper's Section 6 vision: express the embedding budget in the
	// constraint language and let the assessor enforce it during marking.
	r := langRelation(t)
	c := mustParse(t, "altered_fraction() <= 0.10 and distinct('city') >= 4", r)
	a := NewAssessor(c)
	for i := 0; i < r.Len(); i++ {
		_ = a.Apply(r, i, "city", "chicago") // no-ops on existing chicago rows
	}
	if a.applied != 4 { // 10% of 40
		t.Fatalf("committed %d, want 4", a.applied)
	}
}

func TestLangViolationMessageNamesConstraint(t *testing.T) {
	r := langRelation(t)
	c, err := ParseConstraint("my-budget", "altered() <= 0", r)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAssessor(c)
	err = a.Apply(r, 0, "city", "boston")
	var verr *ViolationError
	if !errors.As(err, &verr) {
		t.Fatalf("error %v", err)
	}
	if !strings.Contains(verr.Error(), "my-budget") {
		t.Fatalf("message %q lacks constraint name", verr.Error())
	}
}

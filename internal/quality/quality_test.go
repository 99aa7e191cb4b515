package quality

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"testing"

	"repro/internal/relation"
)

func testRelation(t *testing.T, n int) *relation.Relation {
	t.Helper()
	s := relation.MustSchema([]relation.Attribute{
		{Name: "k", Type: relation.TypeInt},
		{Name: "city", Type: relation.TypeString, Categorical: true},
	}, "k")
	r := relation.New(s)
	cities := []string{"atlanta", "boston", "chicago"}
	for i := 0; i < n; i++ {
		r.MustAppend(relation.Tuple{strconv.Itoa(i), cities[i%3]})
	}
	return r
}

func TestAssessorAppliesAndLogs(t *testing.T) {
	r := testRelation(t, 5)
	a := NewAssessor()
	if err := a.Apply(r, 0, "city", "denver"); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.Value(0, "city"); v != "denver" {
		t.Fatalf("value %q", v)
	}
	if a.applied != 1 || len(a.log) != 1 {
		t.Fatalf("applied=%d log=%d", a.applied, len(a.log))
	}
	got := a.log[0]
	if got.Old != "atlanta" || got.New != "denver" || got.Row != 0 {
		t.Fatalf("log entry %+v", got)
	}
}

func TestAssessorNoOpNotLogged(t *testing.T) {
	r := testRelation(t, 3)
	a := NewAssessor()
	if err := a.Apply(r, 0, "city", "atlanta"); err != nil {
		t.Fatal(err)
	}
	if a.applied != 0 || len(a.log) != 0 {
		t.Fatal("no-op alteration was logged")
	}
}

func TestAssessorUnknownAttr(t *testing.T) {
	r := testRelation(t, 3)
	a := NewAssessor()
	if err := a.Apply(r, 0, "ghost", "x"); err == nil {
		t.Fatal("unknown attribute accepted")
	}
}

func TestViolationRollsBack(t *testing.T) {
	r := testRelation(t, 6)
	dom := relation.MustDomain([]string{"atlanta", "boston", "chicago"})
	a := NewAssessor(ValueDomain("city", dom))
	err := a.Apply(r, 2, "city", "nowhere")
	var verr *ViolationError
	if !errors.As(err, &verr) {
		t.Fatalf("error %v, want ViolationError", err)
	}
	if v, _ := r.Value(2, "city"); v != "chicago" {
		t.Fatalf("value %q after rollback, want chicago", v)
	}
	if a.rejected != 1 || a.applied != 0 {
		t.Fatalf("rejected=%d applied=%d", a.rejected, a.applied)
	}
	// In-domain value still passes.
	if err := a.Apply(r, 2, "city", "boston"); err != nil {
		t.Fatal(err)
	}
}

func TestMaxAlterations(t *testing.T) {
	r := testRelation(t, 10)
	a := NewAssessor(MaxAlterationFraction(1, 2))
	if err := a.Apply(r, 0, "city", "x1"); err != nil {
		t.Fatal(err)
	}
	if err := a.Apply(r, 1, "city", "x2"); err != nil {
		t.Fatal(err)
	}
	err := a.Apply(r, 2, "city", "x3")
	var verr *ViolationError
	if !errors.As(err, &verr) {
		t.Fatalf("third alteration error %v, want violation", err)
	}
	if v, _ := r.Value(2, "city"); v != "chicago" {
		t.Fatal("vetoed alteration persisted")
	}
}

func TestMaxAlterationFraction(t *testing.T) {
	r := testRelation(t, 10)
	a := NewAssessor(MaxAlterationFraction(0.2, r.Len())) // 2 allowed
	ok := 0
	for i := 0; i < 5; i++ {
		if err := a.Apply(r, i, "city", "zzz"+strconv.Itoa(i)); err == nil {
			ok++
		}
	}
	if ok != 2 {
		t.Fatalf("committed %d alterations, want 2", ok)
	}
}

func TestFrozenAttribute(t *testing.T) {
	r := testRelation(t, 3)
	frozen, err := ParseConstraint("frozen:k", "not changed('k')", r)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAssessor(frozen)
	if err := a.Apply(r, 0, "k", "999"); err == nil {
		t.Fatal("frozen attribute altered")
	}
	if r.Key(0) != "0" {
		t.Fatal("key changed despite veto")
	}
	if err := a.Apply(r, 0, "city", "denver"); err != nil {
		t.Fatalf("unrelated attribute vetoed: %v", err)
	}
}

func TestRollbackToCheckpoint(t *testing.T) {
	r := testRelation(t, 6)
	orig := r.Clone()
	a := NewAssessor()
	if err := a.Apply(r, 0, "city", "v0"); err != nil {
		t.Fatal(err)
	}
	cp := len(a.log)
	if err := a.Apply(r, 1, "city", "v1"); err != nil {
		t.Fatal(err)
	}
	if err := a.Apply(r, 2, "city", "v2"); err != nil {
		t.Fatal(err)
	}
	if err := a.rollbackTo(r, cp); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.Value(1, "city"); v != "boston" {
		t.Fatalf("row 1 = %q after rollback", v)
	}
	if v, _ := r.Value(0, "city"); v != "v0" {
		t.Fatalf("checkpointed alteration lost: %q", v)
	}
	if a.applied != 1 {
		t.Fatalf("applied=%d after rollback", a.applied)
	}
	if err := a.UndoAll(r); err != nil {
		t.Fatal(err)
	}
	if !r.Equal(orig) {
		t.Fatal("UndoAll did not restore original relation")
	}
}

func TestRollbackSameRowTwice(t *testing.T) {
	// Two alterations to the same cell must unwind in LIFO order.
	r := testRelation(t, 2)
	a := NewAssessor()
	if err := a.Apply(r, 0, "city", "first"); err != nil {
		t.Fatal(err)
	}
	if err := a.Apply(r, 0, "city", "second"); err != nil {
		t.Fatal(err)
	}
	if err := a.UndoAll(r); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.Value(0, "city"); v != "atlanta" {
		t.Fatalf("LIFO undo broken: %q", v)
	}
}

func TestRollbackInvalidCheckpoint(t *testing.T) {
	a := NewAssessor()
	r := testRelation(t, 1)
	if err := a.rollbackTo(r, 5); err == nil {
		t.Fatal("invalid checkpoint accepted")
	}
	if err := a.rollbackTo(r, -1); err == nil {
		t.Fatal("negative checkpoint accepted")
	}
}

func TestFrequencyDrift(t *testing.T) {
	r := testRelation(t, 9) // 3 of each city
	fd, err := ParseConstraint("drift:city", "freq_drift('city') <= 0.3", r)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAssessor(fd)
	// One move: atlanta 3->2, boston 3->4 ⇒ L1 = 2/9 ≈ 0.222 < 0.3. OK.
	if err := a.Apply(r, 0, "city", "boston"); err != nil {
		t.Fatalf("first move vetoed: %v", err)
	}
	// Second move of the same kind: L1 = 4/9 ≈ 0.444 > 0.3. Veto.
	err = a.Apply(r, 3, "city", "boston")
	var verr *ViolationError
	if !errors.As(err, &verr) {
		t.Fatalf("drift not vetoed: %v", err)
	}
	// A drift-reducing move is allowed: boston back to atlanta.
	if err := a.Apply(r, 0, "city", "atlanta"); err != nil {
		t.Fatalf("drift-reducing move vetoed: %v", err)
	}
}

func TestFrequencyDriftRevertOnRollback(t *testing.T) {
	r := testRelation(t, 9)
	fd, err := ParseConstraint("drift:city", "freq_drift('city') <= 0.25", r)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAssessor(fd)
	if err := a.Apply(r, 0, "city", "boston"); err != nil {
		t.Fatal(err)
	}
	if err := a.UndoAll(r); err != nil {
		t.Fatal(err)
	}
	// After revert the full budget is available again.
	if err := a.Apply(r, 0, "city", "boston"); err != nil {
		t.Fatalf("budget not restored after rollback: %v", err)
	}
}

func TestFrequencyDriftIgnoresOtherAttrs(t *testing.T) {
	r := testRelation(t, 3)
	fd, err := ParseConstraint("drift:city", "freq_drift('city') <= 0.0001", r)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAssessor(fd)
	if err := a.Apply(r, 0, "k", "777"); err != nil {
		t.Fatalf("unrelated attribute vetoed: %v", err)
	}
}

func TestFrequencyDriftUnknownAttr(t *testing.T) {
	r := testRelation(t, 3)
	if _, err := ParseConstraint("drift:ghost", "freq_drift('ghost') <= 0.5", r); err == nil {
		t.Fatal("unknown attribute accepted")
	}
}

func TestClassPreserving(t *testing.T) {
	r := testRelation(t, 6)
	// Class = first letter bucket: a-m vs n-z.
	classify := func(t relation.Tuple) string {
		if len(t) < 2 || len(t[1]) == 0 {
			return "?"
		}
		if t[1][0] <= 'm' {
			return "early"
		}
		return "late"
	}
	a := NewAssessor(&classPreserving{name: "alphabet", classify: classify})
	// atlanta -> boston keeps "early": allowed.
	if err := a.Apply(r, 0, "city", "boston"); err != nil {
		t.Fatalf("class-preserving move vetoed: %v", err)
	}
	// boston -> seattle flips to "late": vetoed.
	err := a.Apply(r, 0, "city", "seattle")
	var verr *ViolationError
	if !errors.As(err, &verr) {
		t.Fatalf("class change not vetoed: %v", err)
	}
	if v, _ := r.Value(0, "city"); v != "boston" {
		t.Fatal("vetoed class change persisted")
	}
}

func TestViolationErrorMessage(t *testing.T) {
	e := &ViolationError{
		Constraint: "c",
		Alt:        Alteration{Row: 3, Attr: "city", Old: "a", New: "b"},
		Reason:     "why",
	}
	msg := e.Error()
	for _, want := range []string{"c", "city", "3", `"a"`, `"b"`, "why"} {
		if !contains(msg, want) {
			t.Errorf("message %q missing %q", msg, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// classPreserving is a plugin constraint in the shape of the Section 6
// idea of encoding "with direct awareness of semantic consistency (e.g.
// classification rules)": it vetoes alterations that change a tuple's
// class under a user-supplied classifier.
type classPreserving struct {
	name     string
	classify func(relation.Tuple) string
}

func (c *classPreserving) Name() string { return "class-preserving:" + c.name }

func (c *classPreserving) Evaluate(ctx Context) error {
	after := ctx.Relation.Tuple(ctx.Alt.Row)
	before := slices.Clone(after)
	if j, ok := ctx.Relation.Schema().Index(ctx.Alt.Attr); ok {
		before[j] = ctx.Alt.Old
	}
	if b, a := c.classify(before), c.classify(after); a != b {
		return fmt.Errorf("class changed %q -> %q", b, a)
	}
	return nil
}

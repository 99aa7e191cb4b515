// Package quality implements the on-the-fly data quality assessment of
// Section 4.1: every property of the database that must be preserved is
// written as a constraint on the allowable change; the watermarking
// algorithm re-evaluates the constraints continuously for each alteration,
// and a rollback log allows undo when a watermarking step violates them
// (the paper's Figure 3 "usability metric plugins" + "alteration rollback
// log" architecture, without the JDBC indirection).
package quality

import (
	"fmt"

	"repro/internal/relation"
	"repro/internal/stats"
)

// Alteration records one value rewrite performed by a watermarking step.
type Alteration struct {
	// Row is the tuple's index at the time of alteration (embedding never
	// reorders tuples, so indices are stable for the log's lifetime).
	Row int
	// Attr is the attribute rewritten.
	Attr string
	// Old and New are the values before and after.
	Old, New string
}

// Context is what a constraint sees when evaluating an alteration. The
// alteration has already been applied to Relation when Evaluate runs, so
// constraints inspect the resulting state; TupleBefore reconstructs the
// pre-image when needed.
type Context struct {
	// Relation is the data with the alteration applied.
	Relation *relation.Relation
	// Alt is the alteration under evaluation.
	Alt Alteration
	// Applied is the number of alterations committed so far, including
	// this one if it commits.
	Applied int
}

// TupleBefore returns a copy of the altered tuple with the old value
// restored.
func (c Context) TupleBefore() relation.Tuple {
	t := c.Relation.Tuple(c.Alt.Row)
	if j, ok := c.Relation.Schema().Index(c.Alt.Attr); ok {
		t[j] = c.Alt.Old
	}
	return t
}

// Constraint is a pluggable usability metric. Evaluate returns a non-nil
// error to veto the alteration.
type Constraint interface {
	// Name identifies the constraint in violation reports.
	Name() string
	// Evaluate vetoes the (already-applied) alteration by returning an
	// error. It must not mutate the relation.
	Evaluate(ctx Context) error
}

// Stateful is an optional extension for constraints that maintain
// incremental state (e.g. a running histogram). Commit is called after an
// alteration is accepted; Revert when a logged alteration is undone.
type Stateful interface {
	Commit(ctx Context)
	Revert(ctx Context)
}

// ViolationError reports which constraint vetoed which alteration.
type ViolationError struct {
	Constraint string
	Alt        Alteration
	Reason     string
}

// Error implements the error interface.
func (e *ViolationError) Error() string {
	return fmt.Sprintf("quality: constraint %q rejected alteration of %s[row %d] %q -> %q: %s",
		e.Constraint, e.Alt.Attr, e.Alt.Row, e.Alt.Old, e.Alt.New, e.Reason)
}

// Assessor applies alterations under constraint evaluation with rollback.
// The zero value is unusable; use NewAssessor.
type Assessor struct {
	constraints []Constraint
	log         []Alteration
	applied     int
	rejected    int
}

// NewAssessor builds an assessor over the given constraints. An assessor
// with no constraints accepts everything but still keeps the rollback log.
func NewAssessor(constraints ...Constraint) *Assessor {
	return &Assessor{constraints: constraints}
}

// Apply performs the alteration on r, evaluates every constraint, and
// either commits it to the rollback log or undoes it and returns a
// *ViolationError. Any other error (e.g. unknown attribute) is returned
// without logging.
func (a *Assessor) Apply(r *relation.Relation, row int, attr, newValue string) error {
	old, err := r.Value(row, attr)
	if err != nil {
		return err
	}
	alt := Alteration{Row: row, Attr: attr, Old: old, New: newValue}
	if old == newValue {
		return nil // no change; nothing to evaluate or log
	}
	if err := r.SetValue(row, attr, newValue); err != nil {
		return err
	}
	ctx := Context{Relation: r, Alt: alt, Applied: a.applied + 1}
	for _, c := range a.constraints {
		if verr := c.Evaluate(ctx); verr != nil {
			// Roll back this step.
			if rbErr := r.SetValue(row, attr, old); rbErr != nil {
				return fmt.Errorf("quality: rollback failed: %w", rbErr)
			}
			a.rejected++
			return &ViolationError{Constraint: c.Name(), Alt: alt, Reason: verr.Error()}
		}
	}
	a.log = append(a.log, alt)
	a.applied++
	for _, c := range a.constraints {
		if s, ok := c.(Stateful); ok {
			s.Commit(ctx)
		}
	}
	return nil
}

// Applied returns the number of committed alterations.
func (a *Assessor) Applied() int { return a.applied }

// Rejected returns the number of vetoed alterations.
func (a *Assessor) Rejected() int { return a.rejected }

// Log returns a copy of the rollback log in application order.
func (a *Assessor) Log() []Alteration { return append([]Alteration(nil), a.log...) }

// Checkpoint returns a marker for the current log position, usable with
// RollbackTo.
func (a *Assessor) Checkpoint() int { return len(a.log) }

// RollbackTo undoes all alterations after the checkpoint, most recent
// first, restoring r to its state at Checkpoint time.
func (a *Assessor) RollbackTo(r *relation.Relation, checkpoint int) error {
	if checkpoint < 0 || checkpoint > len(a.log) {
		return fmt.Errorf("quality: invalid checkpoint %d (log size %d)", checkpoint, len(a.log))
	}
	for i := len(a.log) - 1; i >= checkpoint; i-- {
		alt := a.log[i]
		if err := r.SetValue(alt.Row, alt.Attr, alt.Old); err != nil {
			return fmt.Errorf("quality: undo of row %d failed: %w", alt.Row, err)
		}
		ctx := Context{Relation: r, Alt: alt, Applied: a.applied}
		for _, c := range a.constraints {
			if s, ok := c.(Stateful); ok {
				s.Revert(ctx)
			}
		}
		a.applied--
	}
	a.log = a.log[:checkpoint]
	return nil
}

// UndoAll rolls back every logged alteration.
func (a *Assessor) UndoAll(r *relation.Relation) error { return a.RollbackTo(r, 0) }

// ---- Built-in constraints ------------------------------------------------

// maxAlterations bounds the absolute number of committed alterations —
// the paper's "practical approach would be to begin by specifying an upper
// bound on the percentage of allowable data alterations" (Section 4.1,
// footnote 5).
type maxAlterations struct {
	max int
}

// MaxAlterations returns a constraint allowing at most max committed
// alterations.
func MaxAlterations(max int) Constraint { return &maxAlterations{max: max} }

// MaxAlterationFraction returns a constraint allowing alterations to at
// most frac·n tuples.
func MaxAlterationFraction(frac float64, n int) Constraint {
	return &maxAlterations{max: int(frac * float64(n))}
}

func (m *maxAlterations) Name() string { return "max-alterations" }

func (m *maxAlterations) Evaluate(ctx Context) error {
	if ctx.Applied > m.max {
		return fmt.Errorf("alteration budget %d exhausted", m.max)
	}
	return nil
}

// valueDomain restricts an attribute's values to a fixed catalog — the
// semantic-consistency floor for categorical rewrites.
type valueDomain struct {
	attr   string
	domain *relation.Domain
}

// ValueDomain returns a constraint requiring every new value of attr to be
// in the domain.
func ValueDomain(attr string, d *relation.Domain) Constraint {
	return &valueDomain{attr: attr, domain: d}
}

func (v *valueDomain) Name() string { return "value-domain:" + v.attr }

func (v *valueDomain) Evaluate(ctx Context) error {
	if ctx.Alt.Attr != v.attr {
		return nil
	}
	if !v.domain.Contains(ctx.Alt.New) {
		return fmt.Errorf("value %q outside the %d-value domain", ctx.Alt.New, v.domain.Size())
	}
	return nil
}

// frozenAttribute forbids any change to an attribute (e.g. the primary key
// during embedding).
type frozenAttribute struct {
	attr string
}

// FrozenAttribute returns a constraint vetoing all changes to attr.
func FrozenAttribute(attr string) Constraint { return &frozenAttribute{attr: attr} }

func (f *frozenAttribute) Name() string { return "frozen:" + f.attr }

func (f *frozenAttribute) Evaluate(ctx Context) error {
	if ctx.Alt.Attr == f.attr {
		return fmt.Errorf("attribute %q is frozen", f.attr)
	}
	return nil
}

// frequencyDrift bounds the L1 distance between the attribute's current
// occurrence-frequency profile and its profile at construction time. It
// protects the Section 4.2 frequency channel (and aggregate statistics
// consumers) from excessive histogram distortion.
type frequencyDrift struct {
	attr     string
	maxL1    float64
	baseline *stats.Histogram
	current  *stats.Histogram
}

// FrequencyDrift returns a stateful constraint bounding the L1 drift of
// attr's frequency histogram, measured against r's state now.
func FrequencyDrift(r *relation.Relation, attr string, maxL1 float64) (Constraint, error) {
	h, err := relation.HistogramOf(r, attr)
	if err != nil {
		return nil, err
	}
	return &frequencyDrift{attr: attr, maxL1: maxL1, baseline: h, current: h.Clone()}, nil
}

func (f *frequencyDrift) Name() string { return "frequency-drift:" + f.attr }

func (f *frequencyDrift) Evaluate(ctx Context) error {
	if ctx.Alt.Attr != f.attr {
		return nil
	}
	tentative := f.current.Clone()
	tentative.AddN(ctx.Alt.Old, -1)
	tentative.AddN(ctx.Alt.New, 1)
	if d := tentative.L1Distance(f.baseline); d > f.maxL1 {
		return fmt.Errorf("frequency drift %.4f exceeds budget %.4f", d, f.maxL1)
	}
	return nil
}

func (f *frequencyDrift) Commit(ctx Context) {
	if ctx.Alt.Attr != f.attr {
		return
	}
	f.current.AddN(ctx.Alt.Old, -1)
	f.current.AddN(ctx.Alt.New, 1)
}

func (f *frequencyDrift) Revert(ctx Context) {
	if ctx.Alt.Attr != f.attr {
		return
	}
	f.current.AddN(ctx.Alt.New, -1)
	f.current.AddN(ctx.Alt.Old, 1)
}

// classPreserving vetoes alterations that change a tuple's class under a
// user-supplied classifier — the Section 6 future-work idea of encoding
// with "direct awareness of semantic consistency (e.g. classification
// rules)".
type classPreserving struct {
	name     string
	classify func(relation.Tuple) string
}

// ClassPreserving returns a constraint requiring classify(tuple) to be
// unchanged by each alteration.
func ClassPreserving(name string, classify func(relation.Tuple) string) Constraint {
	return &classPreserving{name: name, classify: classify}
}

func (c *classPreserving) Name() string { return "class-preserving:" + c.name }

func (c *classPreserving) Evaluate(ctx Context) error {
	after := c.classify(ctx.Relation.Tuple(ctx.Alt.Row))
	before := c.classify(ctx.TupleBefore())
	if after != before {
		return fmt.Errorf("class changed %q -> %q", before, after)
	}
	return nil
}

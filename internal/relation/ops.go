package relation

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/stats"
)

// This file implements the data transformations that both legitimate users
// and the Section 2.3 adversary apply: sorting/shuffling (A4), horizontal
// subsetting (A1), vertical partitioning (A5). The attack package composes
// these; they live here because they are ordinary relational operations.

// SortBy reorders tuples by the named attribute ascending (numeric order
// for TypeInt attributes, lexicographic otherwise), dropping the key
// index for its next use to rebuild. Ties keep their relative order.
func (r *Relation) SortBy(attr string) error {
	j, ok := r.schema.Index(attr)
	if !ok {
		return fmt.Errorf("relation: unknown attribute %q", attr)
	}
	typ := r.schema.Attr(j).Type
	sort.SliceStable(r.tuples, func(a, b int) bool {
		va, vb := r.tuples[a][j], r.tuples[b][j]
		if typ == TypeInt {
			ia, errA := strconv.ParseInt(va, 10, 64)
			ib, errB := strconv.ParseInt(vb, 10, 64)
			if errA == nil && errB == nil {
				return ia < ib
			}
		}
		return va < vb
	})
	r.dropIndex()
	return nil
}

// Shuffle randomly permutes tuple order (attack A4: subset re-sorting —
// detection must not depend on any predefined ordering).
func (r *Relation) Shuffle(src *stats.Source) {
	src.Shuffle(len(r.tuples), func(i, j int) {
		r.tuples[i], r.tuples[j] = r.tuples[j], r.tuples[i]
	})
	r.dropIndex()
}

// SelectRows returns a new relation containing clones of the rows at the
// given indices, in the given order.
func (r *Relation) SelectRows(rows []int) (*Relation, error) {
	out := New(r.schema)
	for _, i := range rows {
		if i < 0 || i >= len(r.tuples) {
			return nil, fmt.Errorf("relation: row %d out of range [0,%d)", i, len(r.tuples))
		}
		if err := out.Append(r.tuples[i].Clone()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Filter returns a new relation with clones of the rows for which keep
// returns true.
func (r *Relation) Filter(keep func(i int, t Tuple) bool) *Relation {
	out := New(r.schema)
	for i, t := range r.tuples {
		if keep(i, t) {
			out.MustAppend(t.Clone())
		}
	}
	return out
}

// Project returns a new relation keeping only the named attributes — the
// A5 vertical partition. The primary key follows Schema.Project semantics.
// Rows whose projected key collides are dropped (first occurrence wins),
// mirroring the duplicate elimination a real projection would perform; the
// second return value counts dropped rows.
func (r *Relation) Project(keep ...string) (*Relation, int, error) {
	ps, err := r.schema.Project(keep...)
	if err != nil {
		return nil, 0, err
	}
	cols := make([]int, len(keep))
	for i, name := range keep {
		j, _ := r.schema.Index(name)
		cols[i] = j
	}
	out := New(ps)
	dropped := 0
	for _, t := range r.tuples {
		nt := make(Tuple, len(cols))
		for i, c := range cols {
			nt[i] = t[c]
		}
		if err := out.Append(nt); err != nil {
			dropped++ // duplicate projected key
		}
	}
	return out, dropped, nil
}

// AppendAll appends clones of every tuple in o, returning the number of
// tuples rejected for duplicate keys.
func (r *Relation) AppendAll(o *Relation) (rejected int, err error) {
	if !r.schema.Equal(o.schema) {
		return 0, fmt.Errorf("relation: schema mismatch in AppendAll")
	}
	for _, t := range o.tuples {
		if appendErr := r.Append(t.Clone()); appendErr != nil {
			rejected++
		}
	}
	return rejected, nil
}

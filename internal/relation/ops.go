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
// for TypeInt attributes, lexicographic otherwise). Ties keep their
// relative order.
func (r *Relation) SortBy(attr string) error {
	j, ok := r.schema.Index(attr)
	if !ok {
		return fmt.Errorf("relation: unknown attribute %q", attr)
	}
	typ := r.schema.Attr(j).Type
	order := r.identity()
	sort.SliceStable(order, func(a, b int) bool {
		va, vb := r.At(order[a], j), r.At(order[b], j)
		if typ == TypeInt {
			ia, errA := strconv.ParseInt(va, 10, 64)
			ib, errB := strconv.ParseInt(vb, 10, 64)
			if errA == nil && errB == nil {
				return ia < ib
			}
		}
		return va < vb
	})
	r.permute(order)
	return nil
}

// Shuffle randomly permutes tuple order (attack A4: subset re-sorting —
// detection must not depend on any predefined ordering).
func (r *Relation) Shuffle(src *stats.Source) {
	order := r.identity()
	src.Shuffle(len(order), func(i, j int) {
		order[i], order[j] = order[j], order[i]
	})
	r.permute(order)
}

// identity returns the row numbers 0..Len()-1.
func (r *Relation) identity() []int {
	order := make([]int, r.rows)
	for i := range order {
		order[i] = i
	}
	return order
}

// permute reorders the rows so that row i becomes the old row order[i],
// moving references only.
func (r *Relation) permute(order []int) {
	a := r.arity
	refs := make([]uint64, len(r.refs))
	for dst, src := range order {
		copy(refs[dst*a:(dst+1)*a], r.row(src))
	}
	r.refs = refs
}

// tupleInto fills t, of the relation's arity, with row i's values.
func (r *Relation) tupleInto(t Tuple, i int) {
	for j, ref := range r.row(i) {
		t[j] = r.cols[j].view(ref)
	}
}

// SelectRows returns a new relation containing copies of the rows at
// the given indices, in the given order.
func (r *Relation) SelectRows(rows []int) (*Relation, error) {
	out := New(r.schema)
	t := make(Tuple, r.arity)
	for _, i := range rows {
		if i < 0 || i >= r.rows {
			return nil, fmt.Errorf("relation: row %d out of range [0,%d)", i, r.rows)
		}
		r.tupleInto(t, i)
		if err := out.Append(t); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Project returns a new relation keeping only the named attributes — the
// A5 vertical partition. The primary key follows Schema.Project semantics.
// Rows whose projected key collides are dropped (first occurrence wins),
// mirroring the duplicate elimination a real projection would perform; the
// second return value counts dropped rows. The projection is the one
// operation that reads keys as unique, through a set local to the call.
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
	seen := make(map[string]struct{}, r.rows)
	nt := make(Tuple, len(cols))
	for i := 0; i < r.rows; i++ {
		for k, c := range cols {
			nt[k] = r.At(i, c)
		}
		key := nt[ps.keyIndex]
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		if err := out.Append(nt); err != nil {
			return nil, 0, err
		}
	}
	return out, r.rows - out.rows, nil
}

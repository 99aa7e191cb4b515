package relation

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/stats"
)

// Domain is the sorted value set {a_1, …, a_nA} of a categorical attribute
// (Section 2.1: "These are distinct and can be sorted, e.g. by ASCII
// value"). The watermark bit carried by a tuple is the parity of its
// value's index t in this set, so embedder and detector must agree on the
// same Domain.
//
// Blind detection (Section 4.3) does not need the original data, but it
// does need the attribute's public value catalog — city names, product
// codes — which in practice is known independently of any one relation.
// DomainOf derives a Domain from data for convenience; for detection after
// data-loss attacks prefer a catalog-derived Domain, since a subset attack
// can remove all occurrences of a value and shift data-derived indices.
type Domain struct {
	values []string
	index  map[string]int
}

// NewDomain builds a domain from a value catalog. Values are deduplicated
// and sorted lexicographically. The domain keeps its own copy of the
// distinct values (ownStrings), so it never pins the storage of the
// relation they came from (see Relation).
func NewDomain(values []string) (*Domain, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("relation: empty domain")
	}
	set := make(map[string]bool, len(values))
	for _, v := range values {
		set[v] = true
	}
	sorted := make([]string, 0, len(set))
	for v := range set {
		sorted = append(sorted, v)
	}
	sort.Strings(sorted)
	ownStrings(sorted)
	d := &Domain{values: sorted, index: make(map[string]int, len(sorted))}
	for i, v := range sorted {
		d.index[v] = i
	}
	return d, nil
}

// ownStrings re-points each string of vals into one fresh buffer holding
// them all, so a value that outlives its relation keeps only that buffer
// alive — never a block column string — for one allocation in total.
func ownStrings(vals []string) {
	n := 0
	for _, v := range vals {
		n += len(v)
	}
	var b strings.Builder
	b.Grow(n)
	for _, v := range vals {
		b.WriteString(v)
	}
	all := b.String()
	for i, v := range vals {
		vals[i], all = all[:len(v)], all[len(v):]
	}
}

// MustDomain is NewDomain that panics on error.
func MustDomain(values []string) *Domain {
	d, err := NewDomain(values)
	if err != nil {
		panic(err)
	}
	return d
}

// DomainOf derives the domain of attr from the values present in r,
// through CodeColumn.
func DomainOf(r *Relation, attr string) (*Domain, error) {
	c, err := CodeColumn(r, attr)
	if err != nil {
		return nil, err
	}
	return c.Domain()
}

// Size returns n_A, the number of distinct values.
func (d *Domain) Size() int { return len(d.values) }

// Value returns a_t, the value at sorted index t.
func (d *Domain) Value(t int) string {
	if t < 0 || t >= len(d.values) {
		panic(fmt.Sprintf("relation: domain index %d out of range [0,%d)", t, len(d.values)))
	}
	return d.values[t]
}

// Index returns t such that a_t == v, i.e. "determine t such that
// T_j(A) = a_t" from the decoding algorithm (Figure 2).
func (d *Domain) Index(v string) (int, bool) {
	t, ok := d.index[v]
	return t, ok
}

// IndexBytes is Index for an arena-backed byte view of the value. The
// direct map index keeps the string(...) conversion on the stack, so
// the block-scan hot path can classify values without allocating.
func (d *Domain) IndexBytes(v []byte) (int, bool) {
	t, ok := d.index[string(v)]
	return t, ok
}

// Values returns a copy of the sorted value list.
func (d *Domain) Values() []string { return append([]string(nil), d.values...) }

// Contains reports whether v is in the domain.
func (d *Domain) Contains(v string) bool {
	_, ok := d.index[v]
	return ok
}

// HistogramOf computes the occurrence histogram of attr over r — the
// paper's frequency transform [f_A(a_i)] (Sections 3.1, 4.2). It counts
// through CodeColumn, whose labels are owned copies, so labels that
// outlive r — a certificate's profile keys — do not pin its storage.
func HistogramOf(r *Relation, attr string) (*stats.Histogram, error) {
	c, err := CodeColumn(r, attr)
	if err != nil {
		return nil, err
	}
	return c.Histogram(), nil
}

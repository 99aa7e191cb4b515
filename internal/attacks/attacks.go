// Package attacks implements the Section 2.3 adversary model: the six
// attack classes Mallory can mount to defeat the watermark while
// preserving the data's value. Every attack is seeded and deterministic so
// experiments are reproducible, and every attack returns a fresh relation,
// leaving its input untouched.
//
//	A1  HorizontalSubset   random subset selection ("data loss")
//	A2  SubsetAddition     distribution-conforming tuple injection
//	A3  SubsetAlteration   random rewrites of categorical values
//	A4  Resort             re-sorting / shuffling
//	A5  VerticalPartition  attribute projection
//	A6  BijectiveRemap     value-set remapping through a secret bijection
package attacks

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/relation"
	"repro/internal/stats"
)

// HorizontalSubset (A1) keeps a uniformly random fraction keep of the
// tuples, in their original relative order. keep must be in (0, 1];
// at least one tuple is kept.
func HorizontalSubset(r *relation.Relation, keep float64, src *stats.Source) (*relation.Relation, error) {
	if keep <= 0 || keep > 1 {
		return nil, fmt.Errorf("attacks: keep fraction %v outside (0,1]", keep)
	}
	n := r.Len()
	if n == 0 {
		return nil, errors.New("attacks: empty relation")
	}
	k := int(float64(n) * keep)
	if k == 0 {
		k = 1
	}
	rows := src.Sample(n, k)
	// Preserve original order: sampling gives selection order.
	sortInts(rows)
	return r.SelectRows(rows)
}

// SubsetAddition (A2) appends addFrac·N new tuples. Keys are fresh
// integers above the existing maximum (or synthetic strings); every other
// attribute is drawn from the relation's own empirical value distribution,
// so the addition "does not significantly alter the useful properties of
// the initial set" — the attacker's stated constraint.
func SubsetAddition(r *relation.Relation, addFrac float64, src *stats.Source) (*relation.Relation, error) {
	if addFrac < 0 {
		return nil, fmt.Errorf("attacks: negative addition fraction %v", addFrac)
	}
	if r.Len() == 0 {
		return nil, errors.New("attacks: empty relation")
	}
	out := r.Clone()
	nAdd := int(float64(r.Len()) * addFrac)
	if nAdd == 0 {
		return out, nil
	}
	schema := r.Schema()
	keyCol := schema.KeyIndex()

	samplers := make([]*stats.Weighted, schema.Arity())
	for col := 0; col < schema.Arity(); col++ {
		if col == keyCol {
			continue
		}
		h, err := relation.HistogramOf(r, schema.Attr(col).Name)
		if err != nil {
			return nil, err
		}
		labels, freqs := h.FreqVector()
		samplers[col] = stats.NewWeighted(labels, freqs)
	}

	next := maxIntKey(r) + 1
	for added := 0; added < nAdd; {
		t := make(relation.Tuple, schema.Arity())
		for col := range t {
			if col == keyCol {
				t[col] = strconv.FormatInt(next, 10)
				next++
			} else {
				t[col] = samplers[col].Sample(src)
			}
		}
		if err := out.Append(t); err != nil {
			continue // key collision with a non-numeric keyspace; retry
		}
		added++
	}
	return out, nil
}

// SubsetAlteration (A3) rewrites the named categorical attribute of a
// uniformly random fraction frac of the tuples to a uniformly random
// *different* value from the domain — the "random item alterations"
// attack whose success probability Section 4.4 analyses. The domain is
// derived from the data when dom is nil.
func SubsetAlteration(r *relation.Relation, attr string, frac float64, dom *relation.Domain, src *stats.Source) (*relation.Relation, error) {
	if frac < 0 || frac > 1 {
		return nil, fmt.Errorf("attacks: alteration fraction %v outside [0,1]", frac)
	}
	col, ok := r.Schema().Index(attr)
	if !ok {
		return nil, fmt.Errorf("attacks: unknown attribute %q", attr)
	}
	if r.Len() == 0 {
		return nil, errors.New("attacks: empty relation")
	}
	if dom == nil {
		var err error
		dom, err = relation.DomainOf(r, attr)
		if err != nil {
			return nil, err
		}
	}
	if dom.Size() < 2 {
		return nil, errors.New("attacks: domain too small to alter")
	}
	out := r.Clone()
	n := out.Len()
	for _, row := range src.Sample(n, int(float64(n)*frac)) {
		old := out.At(row, col)
		nv := dom.Value(src.Intn(dom.Size()))
		for nv == old {
			nv = dom.Value(src.Intn(dom.Size()))
		}
		if err := out.SetValue(row, attr, nv); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Resort (A4) returns a randomly shuffled copy.
func Resort(r *relation.Relation, src *stats.Source) *relation.Relation {
	out := r.Clone()
	out.Shuffle(src)
	return out
}

// SortByAttr (A4 variant) returns a copy sorted by the named attribute —
// an "imposed order" the detector must not depend on.
func SortByAttr(r *relation.Relation, attr string) (*relation.Relation, error) {
	out := r.Clone()
	if err := out.SortBy(attr); err != nil {
		return nil, err
	}
	return out, nil
}

// VerticalPartition (A5) projects onto the kept attributes; the second
// result is the number of tuples lost to projected-key deduplication.
//
//wmlint:ignore reachable ROADMAP item 6's Monte-Carlo attack suite is to drive it through the production pipeline
func VerticalPartition(r *relation.Relation, keep ...string) (*relation.Relation, int, error) {
	return r.Project(keep...)
}

// BijectiveRemap (A6) maps every value of attr through a random bijection
// into a fresh namespace, returning the attacked relation and the forward
// mapping (original → remapped) that Mallory would keep secret.
func BijectiveRemap(r *relation.Relation, attr string, src *stats.Source) (*relation.Relation, map[string]string, error) {
	dom, err := relation.DomainOf(r, attr)
	if err != nil {
		return nil, nil, err
	}
	perm := src.Perm(dom.Size())
	forward := make(map[string]string, dom.Size())
	for i, p := range perm {
		forward[dom.Value(i)] = "M_" + strconv.Itoa(p)
	}
	out := r.Clone()
	col, _ := out.Schema().Index(attr)
	for i := 0; i < out.Len(); i++ {
		if err := out.SetValue(i, attr, forward[out.At(i, col)]); err != nil {
			return nil, nil, err
		}
	}
	return out, forward, nil
}

// maxIntKey returns the largest integer-parsable primary key, or a high
// floor when keys are not integers.
func maxIntKey(r *relation.Relation) int64 {
	var max int64 = 1 << 40 // floor for non-numeric keyspaces
	numeric := false
	for i := 0; i < r.Len(); i++ {
		if v, err := strconv.ParseInt(r.Key(i), 10, 64); err == nil {
			if !numeric || v > max {
				max = v
			}
			numeric = true
		}
	}
	return max
}

func sortInts(a []int) { sort.Ints(a) }

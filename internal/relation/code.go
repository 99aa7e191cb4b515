package relation

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// Coding is one attribute column coded to small integers: Codes[i] is
// row i's index into Labels, the column's distinct values in first-seen
// order, and Counts[c] is how many rows hold Labels[c]. Counting, moving
// and scoring by code turns the per-row work of the frequency channel
// (Section 4.2) and of every histogram into slice arithmetic; the one
// per-row map operation left is the coding pass's lookup into a map the
// size of the domain.
//
// Labels are owned copies (ownStrings), so a Coding never pins the
// storage of the relation it was taken from. A Coding describes the
// column as it stood when coded; after the column is rewritten in
// place, Refresh brings it back in step.
type Coding struct {
	// Attr names the coded attribute.
	Attr string
	// Codes holds each row's label index.
	Codes []int32
	// Labels holds the distinct values in first-seen order. A label
	// whose count fell to zero stays, so codes never shift.
	Labels []string
	// Counts holds each label's number of rows.
	Counts []int

	col int
}

// CodeColumn codes attr over r in one pass.
func CodeColumn(r *Relation, attr string) (*Coding, error) {
	j, ok := r.Schema().Index(attr)
	if !ok {
		return nil, fmt.Errorf("relation: unknown attribute %q", attr)
	}
	c := &Coding{Attr: attr, Codes: make([]int32, r.rows), col: j}
	c.Labels, c.Counts = codeColumn(r, j, c.Codes)
	ownStrings(c.Labels)
	return c, nil
}

// codeColumn is the coding pass: one lookup per row into a label index
// the size of the domain, and an insertion per distinct value. It
// stores row i's code in codes[i] unless codes is nil. The labels it
// returns are r's own strings.
func codeColumn(r *Relation, j int, codes []int32) (labels []string, counts []int) {
	index := make(map[string]int32)
	arena, refs := r.arenas[j], r.refs
	for i, k := 0, j; i < r.rows; i, k = i+1, k+r.arity {
		v := viewIn(arena, refs[k])
		c, ok := index[v]
		if !ok {
			c = int32(len(labels))
			index[v] = c
			labels = append(labels, v)
			counts = append(counts, 0)
		}
		counts[c]++
		if codes != nil {
			codes[i] = c
		}
	}
	return labels, counts
}

// Refresh brings c back in step with r's column after in-place
// rewrites: a row whose value still equals its label keeps its code
// for the price of a string comparison, and only a changed row takes a
// lookup. A value c has never seen gets a new label. r must hold the
// rows c was coded from, in the same order.
func (c *Coding) Refresh(r *Relation) {
	var index map[string]int32
	arena, refs := r.arenas[c.col], r.refs
	for i, k := 0, c.col; i < r.rows; i, k = i+1, k+r.arity {
		v := viewIn(arena, refs[k])
		old := c.Codes[i]
		if v == c.Labels[old] {
			continue
		}
		if index == nil {
			index = make(map[string]int32, len(c.Labels))
			for code, l := range c.Labels {
				index[l] = int32(code)
			}
		}
		code, ok := index[v]
		if !ok {
			code = int32(len(c.Labels))
			v = strings.Clone(v)
			index[v] = code
			c.Labels = append(c.Labels, v)
			c.Counts = append(c.Counts, 0)
		}
		c.Counts[old]--
		c.Counts[code]++
		c.Codes[i] = code
	}
}

// Histogram returns the occurrence histogram of the coded column.
func (c *Coding) Histogram() *stats.Histogram {
	return histogramOf(c.Labels, c.Counts)
}

// Domain returns the domain of the values the coded column holds, as
// DomainOf would derive it.
func (c *Coding) Domain() (*Domain, error) {
	values := make([]string, 0, len(c.Labels))
	for code, l := range c.Labels {
		if c.Counts[code] > 0 {
			values = append(values, l)
		}
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("relation: cannot derive domain of %q from empty relation", c.Attr)
	}
	return NewDomain(values)
}

// histogramOf builds a histogram of labels[i] occurring counts[i] times;
// labels with a count of zero are left out.
func histogramOf(labels []string, counts []int) *stats.Histogram {
	m := make(map[string]int, len(labels))
	for i, l := range labels {
		if counts[i] > 0 {
			m[l] = counts[i]
		}
	}
	return stats.HistogramOfCounts(m)
}

package relation

import (
	"fmt"
	"hash/maphash"
	"math/bits"

	"repro/internal/stats"
)

// column is one column's storage (see Relation). A coded column keeps
// labels[code], the reference of a label's bytes in the arena, and its
// writer's value → code index: an open-addressing table holding code+1
// in the first free slot of a label's probe run, at most half full, and
// nil until the writer's first lookup.
type column struct {
	arena  []byte
	labels []uint64
	index  []uint32
	coded  bool
}

// view returns the value a row's slot holds, as a string over the arena.
func (c *column) view(ref uint64) string {
	if c.coded {
		ref = c.labels[ref]
	}
	return viewIn(c.arena, ref)
}

// add appends v to the arena and returns its reference.
func (c *column) add(v string) uint64 {
	off := len(c.arena)
	c.arena = append(grow(c.arena, len(v), 2), v...)
	return uint64(off)<<lenBits | uint64(len(v))
}

// labelSeed seeds the label index's hash; codes never depend on it.
var labelSeed = maphash.MakeSeed()

// intern returns v's code in the coded column c, adding v's bytes as
// the next label when c lacks it: every coded write comes here.
func (c *column) intern(v string) uint32 {
	s := c.slot(v)
	if *s == 0 {
		c.labels = append(grow(c.labels, 1, 2), c.add(v))
		*s = uint32(len(c.labels))
	}
	return *s - 1
}

// slot returns the index slot holding v's code+1, or the empty one where
// it goes. An index that is missing, or that one more label would fill
// past half, is first rebuilt at 2 to 4 slots per label.
func (c *column) slot(v string) *uint32 {
	if 2*(len(c.labels)+1) > len(c.index) {
		c.index = make([]uint32, max(16, 1<<bits.Len(uint(2*len(c.labels)+1))))
		for code, ref := range c.labels {
			*c.slot(viewIn(c.arena, ref)) = uint32(code + 1)
		}
	}
	mask := uint64(len(c.index) - 1)
	for i := maphash.String(labelSeed, v) & mask; ; i = (i + 1) & mask {
		if s := c.index[i]; s == 0 || viewIn(c.arena, c.labels[s-1]) == v {
			return &c.index[i]
		}
	}
}

// codePlain codes the plain column over arena whose slots are refs[j],
// refs[j+stride], …: each distinct value, in first-seen order, becomes
// a label referencing its first occurrence's bytes, so nothing is
// copied. It returns the column and, unless it stores each slot's code
// in dst (which may be refs), each label's count.
func codePlain(arena []byte, refs []uint64, j, stride int, dst []uint64) (column, []int) {
	c := column{arena: arena, coded: true}
	var counts []int
	for k := j; k < len(refs); k += stride {
		s := c.slot(viewIn(arena, refs[k]))
		if *s == 0 {
			c.labels = append(grow(c.labels, 1, 2), refs[k])
			*s = uint32(len(c.labels))
		}
		if dst != nil {
			dst[k] = uint64(*s - 1)
		} else if int(*s) > len(counts) {
			counts = append(grow(counts, 1, 2), 1)
		} else {
			counts[*s-1]++
		}
	}
	return c, counts
}

// Code codes column j in place when it is plain (codePlain), for a
// writer that moves rows by code (freq.EmbedCounts). It writes r (see
// Relation).
func (r *Relation) Code(j int) {
	if c := &r.cols[j]; !c.coded {
		*c, _ = codePlain(c.arena, r.refs, j, r.arity, r.refs)
	}
}

// Slots returns the slot a row of column j holding each value keeps:
// its code in a coded column, adding the labels the column lacks, else
// the reference of its bytes, appended once. A writer that resolves its
// values first (mark.Embedder) then stores them with SetSlotAt. It
// writes r (see Relation); on error r is unchanged.
func (r *Relation) Slots(j int, values ...string) ([]uint64, error) {
	for _, v := range values {
		if err := r.checkRoom(j, v); err != nil {
			return nil, err
		}
	}
	slots := make([]uint64, len(values))
	for i, v := range values {
		slots[i] = r.store(j, v)
	}
	return slots, nil
}

// CodeAt returns the code of row i's value in column j, which must be
// coded.
func (r *Relation) CodeAt(i, j int) uint32 {
	if !r.cols[j].coded {
		panic(fmt.Sprintf("relation: CodeAt on plain column %d", j))
	}
	return uint32(r.refs[i*r.arity+j])
}

// SetSlotAt sets row i's slot of column j to slot: one Slots returned
// for the column, or in a coded column any of its codes. It writes row
// i's slot alone (see Relation).
func (r *Relation) SetSlotAt(i, j int, slot uint64) {
	c := &r.cols[j]
	if c.coded && slot >= uint64(len(c.labels)) || !c.coded && slot>>lenBits+slot&lenMask > uint64(len(c.arena)) {
		panic(fmt.Sprintf("relation: SetSlotAt of slot %#x in column %d", slot, j))
	}
	r.refs[i*r.arity+j] = slot
}

// Holds reports whether row i of column j holds slot's value: a slot
// comparison, which in a coded column compares codes, else a comparison
// of the bytes.
func (r *Relation) Holds(i, j int, slot uint64) bool {
	c, s := &r.cols[j], r.refs[i*r.arity+j]
	return s == slot || !c.coded && viewIn(c.arena, s) == viewIn(c.arena, slot)
}

// Coding is one attribute column's label table with counts: Counts[c]
// rows hold Labels[c]. A coded column's codes are the relation's own
// (CodeAt) and are counted with no lookup; a plain column is coded into
// a scratch table. Counting, moving and scoring by code turns the
// per-row work of the frequency channel (Section 4.2) and of every
// histogram into slice arithmetic. Labels are owned copies
// (ownStrings), so a Coding never pins the relation's storage; it
// describes the column as it stood when counted.
type Coding struct {
	// Attr names the coded attribute.
	Attr string
	// Labels holds the column's labels by code. A label no row holds
	// has a count of zero.
	Labels []string
	// Counts holds each label's number of rows.
	Counts []int
}

// CodeColumn counts attr's codes over r in one pass. It only reads r.
func CodeColumn(r *Relation, attr string) (*Coding, error) {
	j, ok := r.Schema().Index(attr)
	if !ok {
		return nil, fmt.Errorf("relation: unknown attribute %q", attr)
	}
	c := r.cols[j]
	var counts []int
	if c.coded {
		counts = make([]int, len(c.labels))
		for k := j; k < len(r.refs); k += r.arity {
			counts[r.refs[k]]++
		}
	} else {
		c, counts = codePlain(c.arena, r.refs, j, r.arity, nil)
	}
	out := &Coding{Attr: attr, Labels: make([]string, len(c.labels)), Counts: counts}
	for code, ref := range c.labels {
		out.Labels[code] = viewIn(c.arena, ref)
	}
	ownStrings(out.Labels)
	return out, nil
}

// Histogram returns the occurrence histogram of the coded column;
// labels with a count of zero are left out.
func (c *Coding) Histogram() *stats.Histogram {
	m := make(map[string]int, len(c.Labels))
	for code, l := range c.Labels {
		if c.Counts[code] > 0 {
			m[l] = c.Counts[code]
		}
	}
	return stats.HistogramOfCounts(m)
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

// Package relation is the relational-data substrate for the categorical
// watermarking system. The paper assumes a schema (K, A, B) — a primary key
// K and discrete attributes A, B — hosted on a DBMS and accessed through
// JDBC (Figure 3); this package is the in-memory stand-in: schemas,
// tuples, relations, categorical domains, codecs, sorting and partitioning.
//
// Values are stored as strings uniformly; Attribute.Type records the
// logical type for codecs and generators. Categorical semantics (the sorted
// value set {a_1 … a_nA} of Section 2.1) live in Domain.
package relation

import (
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
	"unsafe"
)

// Type is the logical type of an attribute's values.
type Type int

const (
	// TypeString holds free-form text values.
	TypeString Type = iota
	// TypeInt holds base-10 integer values (e.g. Visit_Nbr, Item_Nbr).
	TypeInt
)

// String returns the type's schema-spec name.
func (t Type) String() string {
	switch t {
	case TypeString:
		return "string"
	case TypeInt:
		return "int"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// ParseType parses a schema-spec type name.
func ParseType(s string) (Type, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "string", "str", "text":
		return TypeString, nil
	case "int", "integer":
		return TypeInt, nil
	default:
		return 0, fmt.Errorf("relation: unknown type %q", s)
	}
}

// Attribute describes one column.
type Attribute struct {
	// Name is the attribute name, unique within a schema.
	Name string
	// Type is the logical value type.
	Type Type
	// Categorical marks attributes drawing from a finite discrete value
	// set — the watermark embedding channels of Section 3.
	Categorical bool
}

// Schema describes a relation's columns and its primary key.
type Schema struct {
	attrs    []Attribute
	byName   map[string]int
	keyIndex int
}

// NewSchema builds a schema from attributes; keyAttr names the primary key
// (the paper's K). Attribute names must be unique and non-empty.
func NewSchema(attrs []Attribute, keyAttr string) (*Schema, error) {
	if len(attrs) == 0 {
		return nil, errors.New("relation: schema needs at least one attribute")
	}
	s := &Schema{
		attrs:    append([]Attribute(nil), attrs...),
		byName:   make(map[string]int, len(attrs)),
		keyIndex: -1,
	}
	for i, a := range s.attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("relation: attribute %d has empty name", i)
		}
		if _, dup := s.byName[a.Name]; dup {
			return nil, fmt.Errorf("relation: duplicate attribute %q", a.Name)
		}
		s.byName[a.Name] = i
		if a.Name == keyAttr {
			s.keyIndex = i
		}
	}
	if s.keyIndex < 0 {
		return nil, fmt.Errorf("relation: primary key %q not among attributes", keyAttr)
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for tests and generators
// with static inputs.
func MustSchema(attrs []Attribute, keyAttr string) *Schema {
	s, err := NewSchema(attrs, keyAttr)
	if err != nil {
		panic(err)
	}
	return s
}

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.attrs) }

// Attr returns the attribute at position i.
func (s *Schema) Attr(i int) Attribute { return s.attrs[i] }

// Attrs returns a copy of the attribute list.
func (s *Schema) Attrs() []Attribute { return append([]Attribute(nil), s.attrs...) }

// Index returns the position of the named attribute.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.byName[name]
	return i, ok
}

// KeyIndex returns the primary key's position.
func (s *Schema) KeyIndex() int { return s.keyIndex }

// KeyName returns the primary key's attribute name.
func (s *Schema) KeyName() string { return s.attrs[s.keyIndex].Name }

// CategoricalAttrs returns the names of all categorical attributes,
// in schema order.
func (s *Schema) CategoricalAttrs() []string {
	var out []string
	for _, a := range s.attrs {
		if a.Categorical {
			out = append(out, a.Name)
		}
	}
	return out
}

// Project returns a new schema keeping only the named attributes (in the
// given order). If the original primary key is kept it remains the key;
// otherwise keyAttr of the projection is the first kept attribute —
// mirroring an A5 vertical partition where "one of the remaining attributes
// can act as a primary key" (Section 3.3).
func (s *Schema) Project(keep ...string) (*Schema, error) {
	if len(keep) == 0 {
		return nil, errors.New("relation: projection keeps no attributes")
	}
	attrs := make([]Attribute, 0, len(keep))
	key := ""
	for _, name := range keep {
		i, ok := s.byName[name]
		if !ok {
			return nil, fmt.Errorf("relation: unknown attribute %q", name)
		}
		attrs = append(attrs, s.attrs[i])
		if name == s.KeyName() {
			key = name
		}
	}
	if key == "" {
		key = attrs[0].Name
	}
	return NewSchema(attrs, key)
}

// Equal reports structural equality of two schemas.
func (s *Schema) Equal(o *Schema) bool {
	if s.Arity() != o.Arity() || s.keyIndex != o.keyIndex {
		return false
	}
	for i := range s.attrs {
		if s.attrs[i] != o.attrs[i] {
			return false
		}
	}
	return true
}

// Tuple is one row: values by attribute position, stored as strings.
type Tuple []string

// Clone returns an independent copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// Relation is an ordered multiset of tuples under a schema, with primary
// key uniqueness enforced on insert.
//
// Storage. Each column's values live in an append-only byte arena of
// its own. Row i's value of column j is refs[i*arity+j], a uint64
// packing the value's offset in arena j (high 40 bits) and its length
// (low 24 bits), so a value holds at most 16 MiB - 1 bytes and an arena
// at most 1 TiB; a relation holds fewer than 2^31 rows. Neither the
// arenas, the references nor the key table holds a pointer, so the
// garbage collector marks a relation in constant time whatever its row
// count. At reads a value as a zero-copy string over its arena. Arena
// bytes are never rewritten once a row refers to them: SetValue appends
// the new bytes and repoints the row, Clone shares the arenas
// capacity-capped (an append on either side reallocates) and copies only
// the references and the key table, and SortBy/Shuffle permute
// references. A string read from a relation therefore stays valid
// across later writes, and keeps its whole arena alive while held;
// NewDomain, HistogramOf and CodeColumn copy the values they keep. A
// rewritten value's old bytes stay in the arena until the relation is
// dropped.
//
// Key index. keys is an open-addressing table of uint64 entries: the
// high 32 bits of the key's hash as a tag and row+1 in the low 32 (0 is
// an empty slot), probed linearly from the tag's low bits, so the table
// doubles without rehashing a key. It is at most two thirds full and is
// maintained eagerly: Append, ReadCSV and ReadJSONL insert, a key-column
// SetValue deletes (backward shift) and inserts, Clone copies it, and
// SortBy/Shuffle renumber its rows. Keys are compared through the key
// column, and only when their tags match.
//
// One writer. Every mutator appends to an arena, so a relation has one
// writer at a time. Readers may run alongside it only on columns it does
// not write, and only while it does not append rows or rewrite keys.
type Relation struct {
	schema *Schema
	arity  int
	rows   int
	refs   []uint64
	arenas [][]byte
	keys   []uint64
}

// Storage limits (see Relation).
const (
	lenBits     = 24
	lenMask     = 1<<lenBits - 1
	maxValueLen = lenMask
	maxArena    = 1 << 40
	maxRows     = 1<<31 - 1
	rowMask     = 1<<32 - 1
)

// keySeed seeds the key table's hash for every relation of the process,
// so a clone's copied table stays valid.
var keySeed = maphash.MakeSeed()

func keyHash(key string) uint64 { return maphash.String(keySeed, key) }

// New returns an empty relation with the given schema.
func New(schema *Schema) *Relation {
	return &Relation{schema: schema, arity: schema.Arity(), arenas: make([][]byte, schema.Arity())}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of tuples (the paper's N).
func (r *Relation) Len() int { return r.rows }

// ErrDuplicateKey is returned by Append when a tuple reuses a primary key.
var ErrDuplicateKey = errors.New("relation: duplicate primary key")

// view returns the value of column j that ref references, as a string
// over the column's arena.
func (r *Relation) view(j int, ref uint64) string { return viewIn(r.arenas[j], ref) }

// viewIn returns the value ref references in arena, as a string over
// it; a loop over one column hoists the arena out and calls it
// directly.
//
//wmlint:ignore unsafeview arena bytes are never rewritten once a row refers to them (see Relation)
func viewIn(arena []byte, ref uint64) string {
	off := ref >> lenBits
	b := arena[off : off+ref&lenMask]
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// store appends v to column j's arena and returns its reference. The
// caller has checked the room (checkRoom).
func (r *Relation) store(j int, v string) uint64 {
	off := len(r.arenas[j])
	r.arenas[j] = append(grow(r.arenas[j], len(v)), v...)
	return uint64(off)<<lenBits | uint64(len(v))
}

// grow returns s with room for n more elements, at least doubling its
// capacity when it must reallocate: append grows a large slice by a
// quarter, which copies an arena filled a value at a time several
// times over.
func grow[E any](s []E, n int) []E {
	if cap(s)-len(s) >= n {
		return s
	}
	return slices.Grow(s, max(n, len(s)))
}

// checkRoom reports whether v fits column j's arena.
func (r *Relation) checkRoom(j int, v string) error {
	if len(v) > maxValueLen {
		return fmt.Errorf("relation: value of %d bytes exceeds the %d-byte limit", len(v), maxValueLen)
	}
	if len(r.arenas[j])+len(v) > maxArena {
		return fmt.Errorf("relation: column %d exceeds the %d-byte arena limit", j, maxArena)
	}
	return nil
}

// row returns row i's references.
func (r *Relation) row(i int) []uint64 { return r.refs[i*r.arity : (i+1)*r.arity] }

// findKey probes the key table for key, whose hash is h: it returns the
// slot holding key's entry and true, or the empty slot that ends its
// probe run and false. The table must not be empty.
func (r *Relation) findKey(h uint64, key string) (uint64, bool) {
	mask := uint64(len(r.keys) - 1)
	tag := h >> 32
	for slot := tag & mask; ; slot = (slot + 1) & mask {
		e := r.keys[slot]
		if e == 0 {
			return slot, false
		}
		if e>>32 == tag && r.Key(int(e&rowMask)-1) == key {
			return slot, true
		}
	}
}

// growKeys doubles the key table until it holds rows keys at most two
// thirds full, re-slotting every entry from its tag.
func (r *Relation) growKeys(rows int) {
	if rows*3 <= len(r.keys)*2 {
		return
	}
	size := max(8, len(r.keys))
	for rows*3 > size*2 {
		size <<= 1
	}
	old := r.keys
	r.keys = make([]uint64, size)
	mask := uint64(size - 1)
	for _, e := range old {
		if e == 0 {
			continue
		}
		slot := e >> 32 & mask
		for r.keys[slot] != 0 {
			slot = (slot + 1) & mask
		}
		r.keys[slot] = e
	}
}

// deleteKey empties slot by backward shift: each later entry of the
// probe run whose home slot does not lie between the hole and itself
// moves back into the hole, so no run is cut short.
func (r *Relation) deleteKey(slot uint64) {
	mask := uint64(len(r.keys) - 1)
	hole := slot
	for j := (hole + 1) & mask; ; j = (j + 1) & mask {
		e := r.keys[j]
		if e == 0 {
			break
		}
		if home := e >> 32 & mask; (j-home)&mask >= (j-hole)&mask {
			r.keys[hole] = e
			hole = j
		}
	}
	r.keys[hole] = 0
}

// Append adds a tuple, copying its values into the relation. It
// validates arity, the storage limits and primary-key uniqueness, and
// changes nothing when it fails.
func (r *Relation) Append(t Tuple) error {
	if len(t) != r.arity {
		return fmt.Errorf("relation: tuple arity %d, schema arity %d", len(t), r.arity)
	}
	if r.rows >= maxRows {
		return fmt.Errorf("relation: more than %d rows", maxRows)
	}
	for j, v := range t {
		if err := r.checkRoom(j, v); err != nil {
			return err
		}
	}
	return r.appendHashed(t, keyHash(t[r.schema.keyIndex]))
}

// appendHashed is Append past its checks, with h the hash of t's key.
func (r *Relation) appendHashed(t Tuple, h uint64) error {
	key := t[r.schema.keyIndex]
	r.growKeys(r.rows + 1)
	slot, dup := r.findKey(h, key)
	if dup {
		return fmt.Errorf("%w: %q", ErrDuplicateKey, key)
	}
	r.refs = grow(r.refs, r.arity)
	for j, v := range t {
		r.refs = append(r.refs, r.store(j, v))
	}
	r.rows++
	r.keys[slot] = h&^rowMask | uint64(r.rows)
	return nil
}

// MustAppend is Append that panics on error; for generators whose inputs
// are unique by construction.
func (r *Relation) MustAppend(t Tuple) {
	if err := r.Append(t); err != nil {
		panic(err)
	}
}

// At returns the value of column j in row i without allocating. The
// string shares the relation's storage and stays valid after later
// writes (see Relation).
func (r *Relation) At(i, j int) string { return r.view(j, r.row(i)[j]) }

// Tuple returns a copy of the i-th tuple: one allocation, the values
// shared with the relation's storage. Writing to it leaves the relation
// unchanged; rewrite a value through SetValue.
func (r *Relation) Tuple(i int) Tuple {
	t := make(Tuple, r.arity)
	r.tupleInto(t, i)
	return t
}

// Value returns T_i(attr): the value of the named attribute in row i.
func (r *Relation) Value(i int, attr string) (string, error) {
	j, ok := r.schema.Index(attr)
	if !ok {
		return "", fmt.Errorf("relation: unknown attribute %q", attr)
	}
	return r.At(i, j), nil
}

// SetValue overwrites the named attribute in row i, maintaining the
// primary-key index if the key column is the one changed.
func (r *Relation) SetValue(i int, attr, value string) error {
	j, ok := r.schema.Index(attr)
	if !ok {
		return fmt.Errorf("relation: unknown attribute %q", attr)
	}
	return r.SetValueAt(i, j, value)
}

// SetValueAt is SetValue by column position, for a caller rewriting
// many rows of one column that resolved it once. It appends value to
// the arena and repoints the row; on error the relation is unchanged.
func (r *Relation) SetValueAt(i, j int, value string) error {
	refs := r.row(i)
	if err := r.checkRoom(j, value); err != nil {
		return err
	}
	if j != r.schema.keyIndex {
		refs[j] = r.store(j, value)
		return nil
	}
	old := r.view(j, refs[j])
	if old == value {
		return nil
	}
	return r.setKey(i, value, keyHash(value), keyHash(old))
}

// setKey is SetValueAt on the key column past its checks, with h and
// oldHash the hashes of value and of row i's current key: it deletes
// the old key's entry and inserts the new one.
func (r *Relation) setKey(i int, value string, h, oldHash uint64) error {
	if _, dup := r.findKey(h, value); dup {
		return fmt.Errorf("%w: %q", ErrDuplicateKey, value)
	}
	oldSlot, _ := r.findKey(oldHash, r.Key(i))
	r.deleteKey(oldSlot)
	r.row(i)[r.schema.keyIndex] = r.store(r.schema.keyIndex, value)
	slot, _ := r.findKey(h, value)
	r.keys[slot] = h&^rowMask | uint64(i+1)
	return nil
}

// Key returns the primary-key value of row i.
func (r *Relation) Key(i int) string { return r.At(i, r.schema.keyIndex) }

// Lookup returns the row index holding the given primary-key value.
func (r *Relation) Lookup(key string) (int, bool) {
	if r.rows == 0 {
		return 0, false
	}
	slot, ok := r.findKey(keyHash(key), key)
	if !ok {
		return 0, false
	}
	return int(r.keys[slot]&rowMask) - 1, true
}

// Clone returns a copy with a shared (immutable) schema in three
// allocations whatever the row count: the relation, its arena headers,
// and one array holding its references and then its key table. The
// arenas are shared, capacity-capped so that a write on either side
// appends to a fresh arena and never into the other's.
func (r *Relation) Clone() *Relation {
	store := make([]uint64, len(r.refs)+len(r.keys))
	n := copy(store, r.refs)
	copy(store[n:], r.keys)
	arenas := make([][]byte, r.arity)
	for j, a := range r.arenas {
		arenas[j] = slices.Clip(a)
	}
	return &Relation{
		schema: r.schema,
		arity:  r.arity,
		rows:   r.rows,
		refs:   store[:n:n],
		arenas: arenas,
		keys:   store[n:],
	}
}

// Equal reports whether two relations have equal schemas and identical
// tuple sequences (order-sensitive; use EqualUnordered for set equality).
func (r *Relation) Equal(o *Relation) bool {
	if !r.schema.Equal(o.schema) || r.Len() != o.Len() {
		return false
	}
	for i := 0; i < r.rows; i++ {
		if !r.rowEqual(i, o, i) {
			return false
		}
	}
	return true
}

// EqualUnordered reports whether two relations contain the same tuples
// regardless of order, matching rows by primary key.
func (r *Relation) EqualUnordered(o *Relation) bool {
	if !r.schema.Equal(o.schema) || r.Len() != o.Len() {
		return false
	}
	for i := 0; i < r.rows; i++ {
		j, ok := o.Lookup(r.Key(i))
		if !ok || !r.rowEqual(i, o, j) {
			return false
		}
	}
	return true
}

// rowEqual reports whether row i of r equals row j of o, of the same
// arity.
func (r *Relation) rowEqual(i int, o *Relation, j int) bool {
	for c := 0; c < r.arity; c++ {
		if r.At(i, c) != o.At(j, c) {
			return false
		}
	}
	return true
}

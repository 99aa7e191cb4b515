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

// Relation is an ordered multiset of tuples under a schema. Rows may
// repeat, and so may primary-key values: a copied row is the A2
// attack's added tuple, and it votes as often as it occurs, as on the
// streaming paths. The primary key is the default key attribute, whose
// hash decides a row's fitness; nothing here requires it to be unique.
//
// Storage. Each column's values live in an append-only byte arena of
// its own, and row i's slot of column j is refs[i*arity+j]. A plain
// column's slot is a reference, a uint64 packing the value's offset in
// the arena (high 40 bits) and its length (low 24 bits), so a value
// holds at most 16 MiB - 1 bytes and an arena at most 1 TiB. A coded
// column's slot (Attribute.Categorical, or a column Code coded) is a
// code into the column's table of label references. A relation holds
// fewer than 2^31 rows. No arena, label table or slot holds a pointer,
// so the garbage collector marks a relation in constant time whatever
// its row count. At reads a value as a zero-copy string over its arena.
// Stored bytes are never rewritten: SetValue appends a plain value and
// repoints the row, or stores a code, adding a label the column lacks;
// Clone shares arenas and label tables capacity-capped (an append on
// either side reallocates) and copies only the slots; SortBy/Shuffle
// permute slots. A string read from a relation therefore stays valid
// across later writes, and keeps its whole arena alive while held;
// NewDomain, HistogramOf and CodeColumn copy the values they keep.
// Replaced bytes stay in the arena until the relation is dropped.
//
// One writer. Appending rows, values or labels (Append, SetValue, Code,
// Slots) needs the relation to itself; SetSlotAt writes one row's slot
// alone, so writers of disjoint rows may store slots at once.
// Readers may run alongside a writer only on rows or columns it does
// not write, and only while it does not append rows.
type Relation struct {
	schema *Schema
	arity  int
	rows   int
	refs   []uint64
	cols   []column
}

// Storage limits (see Relation).
const (
	lenBits     = 24
	lenMask     = 1<<lenBits - 1
	maxValueLen = lenMask
	maxArena    = 1 << 40
	maxRows     = 1<<31 - 1
)

// New returns an empty relation with the given schema.
func New(schema *Schema) *Relation {
	cols := make([]column, schema.Arity())
	for j := range cols {
		cols[j].coded = schema.Attr(j).Categorical
	}
	return &Relation{schema: schema, arity: len(cols), cols: cols}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of tuples (the paper's N).
func (r *Relation) Len() int { return r.rows }

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

// store stores v in column j and returns a row's slot for it: v's code,
// or the reference of its bytes. The caller has checked the room.
func (r *Relation) store(j int, v string) uint64 {
	c := &r.cols[j]
	if c.coded {
		return uint64(c.intern(v))
	}
	return c.add(v)
}

// grow returns s with room for n more elements, reallocated to scale
// times len(s)+n, and at least a quarter of len(s) more. A writer with
// no estimate passes 2, a doubling: append grows a large slice by a
// quarter, which copies an arena filled a value at a time several times.
func grow[E any](s []E, n int, scale float64) []E {
	if cap(s)-len(s) >= n {
		return s
	}
	need := len(s) + n
	return slices.Grow(s, max(int(float64(need)*scale), need+len(s)/4)-len(s))
}

// checkRoom reports whether v fits column j's arena.
func (r *Relation) checkRoom(j int, v string) error {
	if len(v) > maxValueLen {
		return fmt.Errorf("relation: value of %d bytes exceeds the %d-byte limit", len(v), maxValueLen)
	}
	if len(r.cols[j].arena)+len(v) > maxArena {
		return fmt.Errorf("relation: column %d exceeds the %d-byte arena limit", j, maxArena)
	}
	return nil
}

// row returns row i's references.
func (r *Relation) row(i int) []uint64 { return r.refs[i*r.arity : (i+1)*r.arity] }

// Append adds a tuple, copying its values into the relation; a key
// that an earlier row holds is appended like any other. It validates
// arity and the storage limits, and changes nothing when it fails.
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
	r.refs = grow(r.refs, r.arity, 2)
	for j, v := range t {
		r.refs = append(r.refs, r.store(j, v))
	}
	r.rows++
	return nil
}

// MustAppend is Append that panics on error; for generators and tests
// whose tuples have the schema's arity.
func (r *Relation) MustAppend(t Tuple) {
	if err := r.Append(t); err != nil {
		panic(err)
	}
}

// At returns the value of column j in row i without allocating. The
// string shares the relation's storage and stays valid after later
// writes (see Relation).
func (r *Relation) At(i, j int) string { return r.cols[j].view(r.row(i)[j]) }

// Tuple returns a copy of the i-th tuple: one allocation, the values
// shared with the relation's storage. Writing to it leaves the relation
// unchanged; rewrite a value through SetValue.
//
//wmlint:ignore reachable perfbench builds its service workload's rows through it; that module is not in the lint run's view
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

// SetValue overwrites the named attribute in row i; the key column is
// written like any other.
func (r *Relation) SetValue(i int, attr, value string) error {
	j, ok := r.schema.Index(attr)
	if !ok {
		return fmt.Errorf("relation: unknown attribute %q", attr)
	}
	return r.SetValueAt(i, j, value)
}

// SetValueAt is SetValue by column position, for a caller rewriting
// many rows of one column that resolved it once. It stores value as
// Append does; on error the relation is unchanged.
func (r *Relation) SetValueAt(i, j int, value string) error {
	if err := r.checkRoom(j, value); err != nil {
		return err
	}
	r.row(i)[j] = r.store(j, value)
	return nil
}

// Key returns the primary-key value of row i.
func (r *Relation) Key(i int) string { return r.At(i, r.schema.keyIndex) }

// Clone returns a copy with a shared (immutable) schema in three
// allocations whatever the row count: the relation, its column headers
// and its slots. Arenas and label tables are shared capacity-capped, so
// a write on either side appends to a fresh one, never into the other's;
// a clone builds its own value → code index on its first write.
func (r *Relation) Clone() *Relation {
	cols := make([]column, r.arity)
	for j, c := range r.cols {
		cols[j] = column{arena: slices.Clip(c.arena), labels: slices.Clip(c.labels), coded: c.coded}
	}
	return &Relation{
		schema: r.schema,
		arity:  r.arity,
		rows:   r.rows,
		refs:   slices.Clone(r.refs),
		cols:   cols,
	}
}

// Equal reports whether two relations have equal schemas and identical
// tuple sequences (order-sensitive).
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

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
	"strings"
	"sync"
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
// Storage. Tuples that Clone, ReadCSV and ReadJSONL produce are cut from
// one backing []string per relation (per block, for the readers), each a
// full slice expression whose capacity ends at its own last value, so an
// append on a Tuple(i) reallocates instead of writing into row i+1.
// Values read by ReadCSV/ReadJSONL are substrings of one string per block
// column, so a value kept beyond the relation's lifetime keeps its whole
// column string alive unless copied out (NewDomain, HistogramOf and
// CodeColumn copy).
//
// Key index. The key -> row index is built on demand, the first time
// Append, SetValue on the key column, Lookup or EqualUnordered needs it;
// Clone does not copy it and SortBy/Shuffle drop it. ReadCSV and
// ReadJSONL do not build it either: they reject duplicate keys through
// a pointer-free hash table of row numbers (firstDuplicateKey) that is
// dropped once checked, so a relation read only to be scanned never
// pays for a string-keyed map. Building it is safe under concurrent
// readers. SetValue on a non-key column never touches it, so workers
// may rewrite disjoint rows of a non-key column at once.
type Relation struct {
	schema *Schema
	tuples []Tuple
	// keys maps key value -> row index; nil until built. keysOnce
	// serializes the lazy build among concurrent readers; mutators own
	// the relation exclusively and may reset both.
	keys     map[string]int
	keysOnce sync.Once
}

// New returns an empty relation with the given schema.
func New(schema *Schema) *Relation {
	return &Relation{schema: schema}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of tuples (the paper's N).
func (r *Relation) Len() int { return len(r.tuples) }

// ErrDuplicateKey is returned by Append when a tuple reuses a primary key.
var ErrDuplicateKey = errors.New("relation: duplicate primary key")

// index returns the key index, building it on first use.
func (r *Relation) index() map[string]int {
	r.keysOnce.Do(func() {
		r.keys = make(map[string]int, len(r.tuples))
		k := r.schema.keyIndex
		for i, t := range r.tuples {
			r.keys[t[k]] = i
		}
	})
	return r.keys
}

// dropIndex discards the key index after a reordering; the next use
// rebuilds it.
func (r *Relation) dropIndex() {
	r.keys = nil
	r.keysOnce = sync.Once{}
}

// Append adds a tuple. It validates arity and primary-key uniqueness.
// The tuple is stored as given (not copied); callers retaining the slice
// should pass t.Clone().
func (r *Relation) Append(t Tuple) error {
	if len(t) != r.schema.Arity() {
		return fmt.Errorf("relation: tuple arity %d, schema arity %d",
			len(t), r.schema.Arity())
	}
	keys := r.index()
	key := t[r.schema.keyIndex]
	if _, dup := keys[key]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateKey, key)
	}
	keys[key] = len(r.tuples)
	r.tuples = append(r.tuples, t)
	return nil
}

// MustAppend is Append that panics on error; for generators whose inputs
// are unique by construction.
func (r *Relation) MustAppend(t Tuple) {
	if err := r.Append(t); err != nil {
		panic(err)
	}
}

// Tuple returns the i-th tuple. The returned slice aliases internal
// storage; mutate only through SetValue. Appending to it never writes
// into another row (see Relation).
func (r *Relation) Tuple(i int) Tuple { return r.tuples[i] }

// Value returns T_i(attr): the value of the named attribute in row i.
func (r *Relation) Value(i int, attr string) (string, error) {
	j, ok := r.schema.Index(attr)
	if !ok {
		return "", fmt.Errorf("relation: unknown attribute %q", attr)
	}
	return r.tuples[i][j], nil
}

// SetValue overwrites the named attribute in row i, maintaining the
// primary-key index if the key column is the one changed. On a non-key
// column it touches row i alone, so callers may run it concurrently on
// distinct rows.
func (r *Relation) SetValue(i int, attr, value string) error {
	j, ok := r.schema.Index(attr)
	if !ok {
		return fmt.Errorf("relation: unknown attribute %q", attr)
	}
	return r.SetValueAt(i, j, value)
}

// SetValueAt is SetValue by column position, for a caller rewriting
// many rows of one column that resolved it once.
func (r *Relation) SetValueAt(i, j int, value string) error {
	if j == r.schema.keyIndex {
		old := r.tuples[i][j]
		if old == value {
			return nil
		}
		keys := r.index()
		if _, dup := keys[value]; dup {
			return fmt.Errorf("%w: %q", ErrDuplicateKey, value)
		}
		delete(keys, old)
		keys[value] = i
	}
	r.tuples[i][j] = value
	return nil
}

// Key returns the primary-key value of row i.
func (r *Relation) Key(i int) string { return r.tuples[i][r.schema.keyIndex] }

// Lookup returns the row index holding the given primary-key value.
func (r *Relation) Lookup(key string) (int, bool) {
	i, ok := r.index()[key]
	return i, ok
}

// Clone returns a deep copy with a shared (immutable) schema. All tuples
// are cut from one backing slice, so the copy costs a constant number of
// allocations; the key index is not copied (its keys are unique by
// construction) and is rebuilt on the clone's first use.
func (r *Relation) Clone() *Relation {
	a := r.schema.Arity()
	vals := make([]string, len(r.tuples)*a)
	tuples := make([]Tuple, len(r.tuples))
	for i, t := range r.tuples {
		row := vals[i*a : (i+1)*a : (i+1)*a]
		copy(row, t)
		tuples[i] = row
	}
	return &Relation{schema: r.schema, tuples: tuples}
}

// Equal reports whether two relations have equal schemas and identical
// tuple sequences (order-sensitive; use EqualUnordered for set equality).
func (r *Relation) Equal(o *Relation) bool {
	if !r.schema.Equal(o.schema) || r.Len() != o.Len() {
		return false
	}
	for i, t := range r.tuples {
		ot := o.tuples[i]
		for j := range t {
			if t[j] != ot[j] {
				return false
			}
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
	for i := range r.tuples {
		j, ok := o.Lookup(r.Key(i))
		if !ok {
			return false
		}
		t, ot := r.tuples[i], o.tuples[j]
		for c := range t {
			if t[c] != ot[c] {
				return false
			}
		}
	}
	return true
}

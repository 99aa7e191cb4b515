package relation

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"

	"repro/internal/stats"
)

// oracleRelation is the storage Relation had before column arenas: one
// []string per row and a map key index, with every operation written
// the way it was then. FuzzRelationOps holds Relation to it.
type oracleRelation struct {
	schema *Schema
	tuples []Tuple
	keys   map[string]int
}

func newOracle(schema *Schema) *oracleRelation {
	return &oracleRelation{schema: schema, keys: make(map[string]int)}
}

func (o *oracleRelation) append(t Tuple) error {
	if len(t) != o.schema.Arity() {
		return fmt.Errorf("relation: tuple arity %d, schema arity %d", len(t), o.schema.Arity())
	}
	key := t[o.schema.keyIndex]
	if _, dup := o.keys[key]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateKey, key)
	}
	o.keys[key] = len(o.tuples)
	o.tuples = append(o.tuples, t.Clone())
	return nil
}

func (o *oracleRelation) setValueAt(i, j int, value string) error {
	if j == o.schema.keyIndex {
		old := o.tuples[i][j]
		if old == value {
			return nil
		}
		if _, dup := o.keys[value]; dup {
			return fmt.Errorf("%w: %q", ErrDuplicateKey, value)
		}
		delete(o.keys, old)
		o.keys[value] = i
	}
	o.tuples[i][j] = value
	return nil
}

func (o *oracleRelation) clone() *oracleRelation {
	c := newOracle(o.schema)
	for _, t := range o.tuples {
		if err := c.append(t); err != nil {
			panic(err)
		}
	}
	return c
}

func (o *oracleRelation) reindex() {
	o.keys = make(map[string]int, len(o.tuples))
	for i, t := range o.tuples {
		o.keys[t[o.schema.keyIndex]] = i
	}
}

func (o *oracleRelation) sortBy(j int) {
	typ := o.schema.Attr(j).Type
	sort.SliceStable(o.tuples, func(a, b int) bool {
		va, vb := o.tuples[a][j], o.tuples[b][j]
		if typ == TypeInt {
			ia, errA := strconv.ParseInt(va, 10, 64)
			ib, errB := strconv.ParseInt(vb, 10, 64)
			if errA == nil && errB == nil {
				return ia < ib
			}
		}
		return va < vb
	})
	o.reindex()
}

func (o *oracleRelation) shuffle(src *stats.Source) {
	src.Shuffle(len(o.tuples), func(i, j int) {
		o.tuples[i], o.tuples[j] = o.tuples[j], o.tuples[i]
	})
	o.reindex()
}

func (o *oracleRelation) selectRows(rows []int) (*oracleRelation, error) {
	out := newOracle(o.schema)
	for _, i := range rows {
		if i < 0 || i >= len(o.tuples) {
			return nil, fmt.Errorf("relation: row %d out of range [0,%d)", i, len(o.tuples))
		}
		if err := out.append(o.tuples[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (o *oracleRelation) filter(keep func(i int, t Tuple) bool) *oracleRelation {
	out := newOracle(o.schema)
	for i, t := range o.tuples {
		if keep(i, t) {
			if err := out.append(t); err != nil {
				panic(err)
			}
		}
	}
	return out
}

func (o *oracleRelation) project(keep ...string) (*oracleRelation, int, error) {
	ps, err := o.schema.Project(keep...)
	if err != nil {
		return nil, 0, err
	}
	out := newOracle(ps)
	dropped := 0
	for _, t := range o.tuples {
		nt := make(Tuple, len(keep))
		for i, name := range keep {
			j, _ := o.schema.Index(name)
			nt[i] = t[j]
		}
		if err := out.append(nt); err != nil {
			dropped++
		}
	}
	return out, dropped, nil
}

func (o *oracleRelation) appendAll(p *oracleRelation) int {
	rejected := 0
	for _, t := range slices.Clone(p.tuples) {
		if err := o.append(t); err != nil {
			rejected++
		}
	}
	return rejected
}

func (o *oracleRelation) equal(p *oracleRelation) bool {
	return o.schema.Equal(p.schema) && slices.EqualFunc(o.tuples, p.tuples, slices.Equal)
}

func (o *oracleRelation) equalUnordered(p *oracleRelation) bool {
	if !o.schema.Equal(p.schema) || len(o.tuples) != len(p.tuples) {
		return false
	}
	for _, t := range o.tuples {
		j, ok := p.keys[t[o.schema.keyIndex]]
		if !ok || !slices.Equal(t, p.tuples[j]) {
			return false
		}
	}
	return true
}

// rowsOf returns r's rows as tuples.
func rowsOf(r *Relation) []Tuple {
	rows := make([]Tuple, r.Len())
	for i := range rows {
		rows[i] = r.Tuple(i)
	}
	return rows
}

// relPair is one relation and its oracle, kept in step.
type relPair struct {
	r *Relation
	o *oracleRelation
}

// checkPair requires equal rows, equal Lookup results for every key
// held and for absent ones.
func checkPair(t *testing.T, step string, p relPair) {
	t.Helper()
	if got := rowsOf(p.r); !slices.EqualFunc(got, p.o.tuples, slices.Equal) {
		t.Fatalf("%s: rows %q, oracle %q", step, got, p.o.tuples)
	}
	for key, want := range p.o.keys {
		if i, ok := p.r.Lookup(key); !ok || i != want {
			t.Fatalf("%s: Lookup(%q) = %d,%v, oracle %d", step, key, i, ok, want)
		}
	}
	for _, key := range []string{"absent", "-1", "x"} {
		if _, held := p.o.keys[key]; !held {
			if i, ok := p.r.Lookup(key); ok {
				t.Fatalf("%s: Lookup of absent %q = %d", step, key, i)
			}
		}
	}
}

var (
	fuzzKeys   = []string{"0", "1", "2", "3", "7", "07", "10", "11", "-5", "", "k", "99", "12", "4", "5", "6"}
	fuzzValues = []string{"a", "b", "", "c,d", "q\"x", "line\nbreak", "zz", "a"}
)

// opStream decodes a fuzz input into operation arguments; past the end
// it yields zeros.
type opStream struct {
	in []byte
	i  int
}

func (s *opStream) next() int {
	if s.i >= len(s.in) {
		return 0
	}
	s.i++
	return int(s.in[s.i-1])
}

func (s *opStream) key() string   { return fuzzKeys[s.next()%len(fuzzKeys)] }
func (s *opStream) value() string { return fuzzValues[s.next()%len(fuzzValues)] }

// FuzzRelationOps drives random operation sequences through Relation
// and the oracle and requires the same rows, errors and Lookup results
// after every step: Append (duplicates included), SetValue/SetValueAt on
// key and non-key columns, Clone with both sides mutated afterwards,
// SortBy, Shuffle, SelectRows, Filter, Project, AppendAll,
// Equal/EqualUnordered, FillBlock, CodeColumn + Refresh, and a
// WriteCSV → ReadCSV round trip.
func FuzzRelationOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 2, 1, 0, 1, 3, 4, 2, 0, 1, 5, 5, 6, 1})
	f.Add([]byte{0, 3, 0, 0, 4, 0, 0, 5, 1, 1, 0, 3, 2, 4, 0, 0, 9, 14, 0})
	f.Add([]byte{0, 1, 1, 0, 2, 2, 0, 3, 3, 0, 6, 4, 4, 1, 9, 12, 0, 3, 13, 0, 1, 2, 7, 0, 5, 11, 0, 1})
	f.Add(bytes.Repeat([]byte{0, 5, 3, 1, 0, 2, 4, 8, 0, 0, 7, 3, 10, 1, 0, 12, 2, 1, 14}, 6))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 400 {
			in = in[:400]
		}
		schema := MustSchema([]Attribute{
			{Name: "v", Type: TypeString, Categorical: true},
			{Name: "k", Type: TypeInt},
			{Name: "w", Type: TypeString},
		}, "k")
		pairs := []relPair{{New(schema), newOracle(schema)}}
		s := &opStream{in: in}
		for step := 0; s.i < len(s.in); step++ {
			p := &pairs[s.next()%len(pairs)]
			arity, n := p.r.schema.Arity(), p.r.Len()
			op := s.next() % 15
			name := fmt.Sprintf("step %d op %d", step, op)
			switch op {
			case 0, 1: // Append
				tup := make(Tuple, arity)
				for j := range tup {
					tup[j] = s.value()
				}
				tup[p.r.schema.keyIndex] = s.key()
				gotErr, wantErr := p.r.Append(tup), p.o.append(tup)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: Append(%q) = %v, oracle %v", name, tup, gotErr, wantErr)
				}
			case 2, 3: // SetValueAt on the key, SetValue on any column
				if n == 0 {
					continue
				}
				i, j, v := s.next()%n, p.r.schema.keyIndex, s.key()
				var gotErr error
				if op == 3 {
					j, v = s.next()%arity, s.value()
					gotErr = p.r.SetValue(i, p.r.schema.Attr(j).Name, v)
				} else {
					gotErr = p.r.SetValueAt(i, j, v)
				}
				if wantErr := p.o.setValueAt(i, j, v); fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: SetValueAt(%d,%d,%q) = %v, oracle %v", name, i, j, v, gotErr, wantErr)
				}
			case 4: // Clone; later steps mutate either side
				if len(pairs) < 5 {
					pairs = append(pairs, relPair{p.r.Clone(), p.o.clone()})
				}
			case 5: // SortBy
				j := s.next() % arity
				if err := p.r.SortBy(p.r.schema.Attr(j).Name); err != nil {
					t.Fatal(err)
				}
				p.o.sortBy(j)
			case 6: // Shuffle
				seed := strconv.Itoa(s.next())
				p.r.Shuffle(stats.NewSource(seed))
				p.o.shuffle(stats.NewSource(seed))
			case 7: // SelectRows, repeats and out-of-range rows included
				rows := make([]int, s.next()%5)
				for k := range rows {
					rows[k] = s.next()%(n+2) - 1
				}
				got, gotErr := p.r.SelectRows(rows)
				want, wantErr := p.o.selectRows(rows)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: SelectRows(%v) = %v, oracle %v", name, rows, gotErr, wantErr)
				}
				if gotErr == nil {
					checkPair(t, name+" result", relPair{got, want})
				}
			case 8: // Filter
				m, v := s.next()%3+1, s.value()
				keep := func(i int, t Tuple) bool { return i%m == 0 || t[0] == v }
				if len(pairs) < 5 {
					pairs = append(pairs, relPair{p.r.Filter(keep), p.o.filter(keep)})
				}
			case 9: // Project
				var keep []string
				for j := 0; j < arity; j++ {
					if s.next()%2 == 0 {
						keep = append(keep, p.r.schema.Attr(j).Name)
					}
				}
				if len(keep) == 0 {
					continue
				}
				got, gotDropped, err := p.r.Project(keep...)
				if err != nil {
					t.Fatal(err)
				}
				want, wantDropped, _ := p.o.project(keep...)
				if gotDropped != wantDropped {
					t.Fatalf("%s: Project(%q) dropped %d, oracle %d", name, keep, gotDropped, wantDropped)
				}
				if len(pairs) < 5 {
					pairs = append(pairs, relPair{got, want})
				}
			case 10: // AppendAll
				q := pairs[s.next()%len(pairs)]
				if !p.r.schema.Equal(q.r.schema) {
					continue
				}
				got, err := p.r.AppendAll(q.r)
				if err != nil {
					t.Fatal(err)
				}
				if want := p.o.appendAll(q.o); got != want {
					t.Fatalf("%s: AppendAll rejected %d, oracle %d", name, got, want)
				}
			case 11: // Equal / EqualUnordered
				q := pairs[s.next()%len(pairs)]
				if p.r.Equal(q.r) != p.o.equal(q.o) || p.r.EqualUnordered(q.r) != p.o.equalUnordered(q.o) {
					t.Fatalf("%s: Equal %v/%v, EqualUnordered %v/%v", name,
						p.r.Equal(q.r), p.o.equal(q.o), p.r.EqualUnordered(q.r), p.o.equalUnordered(q.o))
				}
			case 12: // FillBlock
				lo := s.next() % (n + 1)
				hi := lo + s.next()%(n-lo+1)
				var cols []int
				for j := 0; j < arity; j++ {
					if s.next()%2 == 0 {
						cols = append(cols, j)
					}
				}
				b := NewBlock(p.r.schema)
				p.r.FillBlock(b, lo, hi, cols...)
				listed := cols
				if len(cols) == 0 {
					listed = []int{0, 1, 2}[:arity]
				}
				for _, c := range listed {
					if b.Col(c).Rows() != hi-lo {
						t.Fatalf("%s: FillBlock column %d has %d rows, want %d", name, c, b.Col(c).Rows(), hi-lo)
					}
					for i := lo; i < hi; i++ {
						if got := b.Col(c).String(i - lo); got != p.o.tuples[i][c] {
							t.Fatalf("%s: FillBlock(%d,%d) row %d col %d = %q, oracle %q", name, lo, hi, i, c, got, p.o.tuples[i][c])
						}
					}
				}
			case 13: // CodeColumn, rewrites, Refresh
				j := s.next() % arity
				if j == p.r.schema.keyIndex {
					continue
				}
				attr := p.r.schema.Attr(j).Name
				c, err := CodeColumn(p.r, attr)
				if err != nil {
					t.Fatal(err)
				}
				for k := s.next() % 4; k > 0 && n > 0; k-- {
					i, v := s.next()%n, s.value()
					if err := p.r.SetValueAt(i, j, v); err != nil {
						t.Fatal(err)
					}
					if err := p.o.setValueAt(i, j, v); err != nil {
						t.Fatal(err)
					}
				}
				c.Refresh(p.r)
				counts := make([]int, len(c.Labels))
				for i, code := range c.Codes {
					if c.Labels[code] != p.o.tuples[i][j] {
						t.Fatalf("%s: row %d coded %q, oracle %q", name, i, c.Labels[code], p.o.tuples[i][j])
					}
					counts[code]++
				}
				if len(c.Codes) != n || !slices.Equal(counts, c.Counts) {
					t.Fatalf("%s: %d codes, counts %v, want %d codes, counts %v", name, len(c.Codes), c.Counts, n, counts)
				}
			case 14: // WriteCSV → ReadCSV
				var buf bytes.Buffer
				if err := WriteCSV(&buf, p.r); err != nil {
					t.Fatal(err)
				}
				back, err := ReadCSV(&buf, p.r.schema)
				if err != nil {
					t.Fatalf("%s: ReadCSV of WriteCSV: %v", name, err)
				}
				checkPair(t, name+" round trip", relPair{back, p.o})
			}
			for k, q := range pairs {
				checkPair(t, fmt.Sprintf("%s, relation %d", name, k), q)
			}
		}
	})
}

// TestRelationStorageHoldsNoPointers walks Relation's fields by
// reflection and fails if a per-row array holds pointers the garbage
// collector would have to walk row by row. A slice of slices is a
// per-column container, one header per column; the slices inside it,
// like every other slice field, are per-row storage.
func TestRelationStorageHoldsNoPointers(t *testing.T) {
	typ := reflect.TypeOf(Relation{})
	perRow := 0
	var walk func(name string, s reflect.Type)
	walk = func(name string, s reflect.Type) {
		if s.Elem().Kind() == reflect.Slice {
			walk(name+"[j]", s.Elem())
			return
		}
		perRow++
		if holdsPointers(s.Elem()) {
			t.Errorf("Relation.%s is a slice of %s, which holds pointers", name, s.Elem())
		}
	}
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() == reflect.Slice {
			walk(f.Name, f.Type)
		}
	}
	if perRow < 3 {
		t.Fatalf("%d per-row arrays found, want the references, the arenas and the key table", perRow)
	}
}

// holdsPointers reports whether a value of type t contains a pointer the
// garbage collector must follow.
func holdsPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && holdsPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		return true
	}
}

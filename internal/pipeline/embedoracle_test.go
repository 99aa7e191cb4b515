package pipeline

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/ecc"
	"repro/internal/keyhash"
	"repro/internal/mark"
	"repro/internal/quality"
	"repro/internal/relation"
)

// oracleEmbed is Figure 1(a) one tuple at a time, written from the
// keyed-hash primitives alone — no Kernel, no Block, no scratch — as the
// reference mark.Embed and pipeline.Embed are held to:
//
//	for each tuple T, in row order:
//	  if H(T(K);k1) mod e == 0:
//	    pos  = H(T(K);k2) mod |wm_data|
//	    T(A) = a_t, t = PairIndex(word 1 of H(T(K);k1), nA, wm_data[pos])
//
// with the ledger (SkipRow), the quality gate (Assessor) and OnAlter
// applied around each rewrite exactly as Options documents them.
func oracleEmbed(r *relation.Relation, wm ecc.Bits, opts mark.Options) (mark.EmbedStats, error) {
	s := r.Schema()
	keyName := opts.KeyAttr
	if keyName == "" {
		keyName = s.KeyName()
	}
	keyCol, _ := s.Index(keyName)
	attrCol, _ := s.Index(opts.Attr)
	bw := mark.Bandwidth(r.Len(), opts.E)
	if opts.BandwidthOverride > 0 {
		bw = opts.BandwidthOverride
	}
	wmData, err := ecc.MajorityCode{}.Encode(wm, bw)
	if err != nil {
		return mark.EmbedStats{}, err
	}
	dom := opts.Domain
	st := mark.EmbedStats{Tuples: r.Len(), Bandwidth: bw}
	touched := make([]bool, bw)
	for row := 0; row < r.Len(); row++ {
		key := r.Tuple(row)[keyCol]
		d1 := keyhash.HashString(opts.K1, key)
		if !keyhash.Fit(d1, opts.E) {
			continue
		}
		st.Fit++
		if opts.SkipRow != nil && opts.SkipRow(row) {
			st.SkippedLedger++
			continue
		}
		pos := int(keyhash.HashString(opts.K2, key).Mod(uint64(bw)))
		newVal := dom.Value(keyhash.PairIndex(d1.Uint64At(1), dom.Size(), uint64(wmData[pos])))
		if r.Tuple(row)[attrCol] == newVal {
			st.Unchanged++
			touched[pos] = true
			continue
		}
		if opts.Assessor != nil {
			err = opts.Assessor.Apply(r, row, opts.Attr, newVal)
			var verr *quality.ViolationError
			if errors.As(err, &verr) {
				st.SkippedQuality++
				continue
			}
		} else {
			err = r.SetValue(row, opts.Attr, newVal)
		}
		if err != nil {
			return mark.EmbedStats{}, err
		}
		st.Altered++
		touched[pos] = true
		if opts.OnAlter != nil {
			opts.OnAlter(row)
		}
	}
	for _, hit := range touched {
		if hit {
			st.PositionsTouched++
		}
	}
	return st, nil
}

// oracleRelation has a primary key, a second unique column that can act
// as K for a Section 3.3 pairwise embedding, and a categorical column
// with one value outside the embedding domain — at arity 5, with a
// column between every pair a pass reads (id, note, k, pad, cat), so
// the embedding's key column is never beside the attribute.
func oracleRelation(n int) *relation.Relation {
	schema := relation.MustSchema([]relation.Attribute{
		{Name: "id", Type: relation.TypeString},
		{Name: "note", Type: relation.TypeString},
		{Name: "k", Type: relation.TypeString},
		{Name: "pad", Type: relation.TypeString},
		{Name: "cat", Type: relation.TypeString, Categorical: true},
	}, "id")
	r := relation.New(schema)
	values := []string{"a", "b", "c", "d", "e", "f", "zz"}
	for i := 0; i < n; i++ {
		r.MustAppend(relation.Tuple{"id-" + strconv.Itoa(i), "n" + strconv.Itoa(i%11), "k-" + strconv.Itoa(i*7919), "p", values[(i*5)%len(values)]})
	}
	return r
}

// TestEmbedMatchesTupleOracle holds mark.Embed and pipeline.Embed, at
// every block size and worker count, to the tuple-at-a-time oracle: the
// same relation, the same EmbedStats and, where OnAlter is set, the
// same alteration sequence — with the ledger, the quality gate and the
// alteration hook set, and with the primary key as the watermarked
// attribute.
func TestEmbedMatchesTupleOracle(t *testing.T) {
	const n = 3000
	wm := ecc.MustParseBits("1011001110")
	catDom, err := relation.NewDomain([]string{"a", "b", "c", "d", "e", "f"})
	if err != nil {
		t.Fatal(err)
	}
	// Fresh replacement keys, so primary-key rewrites never take an
	// existing key; enough of them that the fit rows' draws do not
	// collide with each other.
	fresh := make([]string, 1<<16)
	for i := range fresh {
		fresh[i] = "R" + strconv.Itoa(i)
	}
	keyDom, err := relation.NewDomain(fresh)
	if err != nil {
		t.Fatal(err)
	}

	// Each case builds fresh options per run, so stateful hooks and
	// assessors start clean; altered records the OnAlter sequence.
	type run struct {
		opts    mark.Options
		altered *[]int
	}
	base := func() mark.Options {
		return mark.Options{
			Attr: "cat", K1: keyhash.NewKey("oracle-k1"), K2: keyhash.NewKey("oracle-k2"),
			E: 6, Domain: catDom,
		}
	}
	withHooks := func(o mark.Options, skip, assess, onAlter bool) run {
		rn := run{altered: new([]int)}
		if skip {
			o.SkipRow = func(row int) bool { return row%7 == 3 || len(*rn.altered) >= 150 }
		}
		if assess {
			o.Assessor = quality.NewAssessor(quality.MaxAlterationFraction(1, 120))
		}
		if onAlter || skip {
			o.OnAlter = func(row int) { *rn.altered = append(*rn.altered, row) }
		}
		rn.opts = o
		return rn
	}
	cases := []struct {
		name string
		mk   func() run
	}{
		{"plain", func() run { return withHooks(base(), false, false, false) }},
		{"skiprow", func() run { return withHooks(base(), true, false, false) }},
		{"assessor", func() run { return withHooks(base(), false, true, false) }},
		{"onalter", func() run { return withHooks(base(), false, false, true) }},
		{"all-hooks", func() run { return withHooks(base(), true, true, true) }},
		{"primary-key", func() run {
			o := base()
			// About 50 fit rows draw from 2^15 keys of each parity.
			o.KeyAttr, o.Attr, o.Domain, o.E = "k", "id", keyDom, 60
			return withHooks(o, false, false, false)
		}},
	}
	src := oracleRelation(n)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := src.Clone()
			oracle := tc.mk()
			wantStats, err := oracleEmbed(want, wm, oracle.opts)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			if wantStats.Altered == 0 ||
				(oracle.opts.SkipRow != nil) != (wantStats.SkippedLedger > 0) ||
				(oracle.opts.Assessor != nil) != (wantStats.SkippedQuality > 0) {
				t.Fatalf("vacuous case: %+v", wantStats)
			}
			check := func(label string, embed func(*relation.Relation, mark.Options) (mark.EmbedStats, error)) {
				t.Helper()
				got := src.Clone()
				rn := tc.mk()
				st, err := embed(got, rn.opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !got.Equal(want) {
					t.Fatalf("%s: relation differs from the oracle's", label)
				}
				if st != wantStats {
					t.Fatalf("%s: stats differ:\n got  %+v\n want %+v", label, st, wantStats)
				}
				if !reflect.DeepEqual(*rn.altered, *oracle.altered) {
					t.Fatalf("%s: OnAlter sequence differs from the oracle's", label)
				}
			}
			check("mark.Embed", func(r *relation.Relation, o mark.Options) (mark.EmbedStats, error) {
				return mark.Embed(r, wm, o)
			})
			for _, blockRows := range []int{1, 7, 512} {
				for _, workers := range []int{1, 2, 4} {
					cfg := Config{Workers: workers, ChunkRows: 700, BlockRows: blockRows}
					check(fmt.Sprintf("pipeline.Embed block %d workers %d", blockRows, workers),
						func(r *relation.Relation, o mark.Options) (mark.EmbedStats, error) {
							return Embed(context.Background(), r, wm, o, cfg)
						})
				}
			}
		})
	}
}

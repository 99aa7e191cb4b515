package freq

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/internal/datagen"
	"repro/internal/ecc"
	"repro/internal/numeric"
	"repro/internal/quality"
	"repro/internal/relation"
	"repro/internal/stats"
)

// embedCountsOracle is EmbedCounts as it was written before the coding
// pass: a string-keyed histogram counted with one map write per row,
// surplus in a map, and two histogram updates per move.
func embedCountsOracle(r *relation.Relation, attr string, wm ecc.Bits, p Params) (EmbedStats, *stats.Histogram, error) {
	var st EmbedStats
	col, ok := r.Schema().Index(attr)
	if !ok {
		return st, nil, fmt.Errorf("freq: attribute %q not in schema", attr)
	}
	if len(wm) == 0 {
		return st, nil, errors.New("freq: empty watermark")
	}
	if r.Len() == 0 {
		return st, nil, errors.New("freq: empty relation")
	}
	hist := stats.HistogramOfCounts(map[string]int{})
	for i := 0; i < r.Len(); i++ {
		hist.Add(r.Tuple(i)[col])
	}
	labels, freqs := hist.FreqVector()
	if len(labels) < len(wm) {
		return st, nil, fmt.Errorf("freq: %d distinct values cannot carry %d bits", len(labels), len(wm))
	}
	items := make([]numeric.Item, len(labels))
	for i, l := range labels {
		items[i] = numeric.Item{Label: l, Value: freqs[i]}
	}
	np := p.Numeric
	keep := p.NoiseKeep
	if keep <= 0 || keep > 1 {
		keep = 0.5
	}
	n := float64(r.Len())
	fMean := 1.0 / float64(len(labels))
	np.MinStep = math.Max(3*math.Sqrt(fMean*(1-keep)/(keep*n)), 1.5/n)
	marked, encSt, err := numeric.Encode(items, wm, np)
	if err != nil {
		return st, nil, err
	}
	st.Numeric = encSt
	target := apportionOracle(marked, r.Len())

	surplus := make(map[string]int)
	type deficitEntry struct {
		label string
		need  int
	}
	var deficits []deficitEntry
	for _, l := range labels {
		d := hist.Count(l) - target[l]
		if d > 0 {
			surplus[l] = d
		} else if d < 0 {
			deficits = append(deficits, deficitEntry{label: l, need: -d})
		}
	}
	sort.Slice(deficits, func(i, j int) bool {
		if deficits[i].need != deficits[j].need {
			return deficits[i].need > deficits[j].need
		}
		return deficits[i].label < deficits[j].label
	})
	di := 0
	advance := func() {
		for di < len(deficits) && deficits[di].need == 0 {
			di++
		}
	}
	advance()
	for row := 0; row < r.Len() && di < len(deficits); row++ {
		v := r.Tuple(row)[col]
		if surplus[v] <= 0 {
			continue
		}
		if p.SkipRow != nil && p.SkipRow(row) {
			continue
		}
		newVal := deficits[di].label
		if p.Assessor != nil {
			if aerr := p.Assessor.Apply(r, row, attr, newVal); aerr != nil {
				var verr *quality.ViolationError
				if errors.As(aerr, &verr) {
					continue
				}
				return st, nil, aerr
			}
		} else if serr := r.SetValue(row, attr, newVal); serr != nil {
			return st, nil, serr
		}
		hist.AddN(v, -1)
		hist.AddN(newVal, 1)
		surplus[v]--
		deficits[di].need--
		st.TuplesMoved++
		if p.OnAlter != nil {
			p.OnAlter(row)
		}
		advance()
	}
	for ; di < len(deficits); di++ {
		st.Residual += deficits[di].need
	}
	return st, hist, nil
}

// apportionOracle is apportion keyed by label.
func apportionOracle(items []numeric.Item, n int) map[string]int {
	total := 0.0
	for _, it := range items {
		if it.Value > 0 {
			total += it.Value
		}
	}
	counts := make(map[string]int, len(items))
	type frac struct {
		label string
		rem   float64
	}
	fracs := make([]frac, 0, len(items))
	assigned := 0
	for _, it := range items {
		v := max(it.Value, 0)
		exact := v / total * float64(n)
		c := int(exact)
		counts[it.Label] = c
		assigned += c
		fracs = append(fracs, frac{label: it.Label, rem: exact - float64(c)})
	}
	sort.Slice(fracs, func(i, j int) bool {
		if fracs[i].rem != fracs[j].rem {
			return fracs[i].rem > fracs[j].rem
		}
		return fracs[i].label < fracs[j].label
	})
	for i := 0; assigned < n && i < len(fracs); i++ {
		counts[fracs[i].label]++
		assigned++
	}
	return counts
}

// TestEmbedCountsMatchesMapOracle holds EmbedCounts to the map-based
// oracle across seeds and cases — plain, a SkipRow ledger, an assessor
// that vetoes moves, OnAlter, a single distinct value and a catalog of
// more than 2^8 values present: the same relation, EmbedStats,
// histogram, OnAlter sequence and error, with the coding left matching
// the relation.
func TestEmbedCountsMatchesMapOracle(t *testing.T) {
	type tc struct {
		name     string
		catalog  int
		wm       string
		skip     bool
		budget   int
		onAlter  bool
		distinct int // minimum distinct values the data must hold
	}
	cases := []tc{
		{name: "plain", catalog: 60, wm: "10110"},
		{name: "skiprow", catalog: 60, wm: "10110", skip: true},
		{name: "assessor-veto", catalog: 60, wm: "10110", budget: 40},
		{name: "onalter", catalog: 60, wm: "1011", onAlter: true},
		{name: "all-hooks", catalog: 60, wm: "110", skip: true, budget: 60, onAlter: true},
		{name: "single-value", catalog: 1, wm: "1"},
		{name: "single-value-two-bits", catalog: 1, wm: "10"},
		{name: "wide-catalog", catalog: 600, wm: "1011001", distinct: 257},
	}
	for _, c := range cases {
		for seed := 1; seed <= 3; seed++ {
			name := fmt.Sprintf("%s/seed-%d", c.name, seed)
			src, _, err := datagen.ItemScan(datagen.ItemScanConfig{
				N: 6000, CatalogSize: max(c.catalog, 2), ZipfS: 0.9, Seed: "oracle-" + strconv.Itoa(seed),
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; c.catalog == 1 && i < src.Len(); i++ {
				if err := src.SetValue(i, "Item_Nbr", "42"); err != nil {
					t.Fatal(err)
				}
			}
			run := func(r *relation.Relation, embed func(*relation.Relation, Params) (EmbedStats, *stats.Histogram, error)) (EmbedStats, *stats.Histogram, []int, error) {
				p := freqParams()
				var moved []int
				if c.skip {
					p.SkipRow = func(row int) bool { return row%5 == 2 }
				}
				if c.budget > 0 {
					p.Assessor = quality.NewAssessor(quality.MaxAlterationFraction(1, c.budget))
				}
				if c.onAlter {
					p.OnAlter = func(row int) { moved = append(moved, row) }
				}
				st, h, err := embed(r, p)
				return st, h, moved, err
			}
			wm := ecc.MustParseBits(c.wm)
			want := src.Clone()
			wantSt, wantH, wantMoved, wantErr := run(want, func(r *relation.Relation, p Params) (EmbedStats, *stats.Histogram, error) {
				return embedCountsOracle(r, "Item_Nbr", wm, p)
			})
			got := src.Clone()
			var coding *relation.Coding
			gotSt, gotH, gotMoved, gotErr := run(got, func(r *relation.Relation, p Params) (EmbedStats, *stats.Histogram, error) {
				if coding, err = relation.CodeColumn(r, "Item_Nbr"); err != nil {
					return EmbedStats{}, nil, err
				}
				return EmbedCounts(r, coding, wm, p)
			})
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: error %v, oracle %v", name, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if c.distinct > 0 && wantH.Distinct() < c.distinct {
				t.Fatalf("%s: %d distinct values, the case needs %d", name, wantH.Distinct(), c.distinct)
			}
			if !got.Equal(want) {
				t.Fatalf("%s: relation differs from the oracle's", name)
			}
			if !reflect.DeepEqual(gotSt, wantSt) {
				t.Fatalf("%s: stats\n got  %+v\n want %+v", name, gotSt, wantSt)
			}
			if !reflect.DeepEqual(histCounts(gotH), histCounts(wantH)) || histTotal(gotH) != histTotal(wantH) {
				t.Fatalf("%s: histogram differs from the oracle's", name)
			}
			if !reflect.DeepEqual(gotMoved, wantMoved) {
				t.Fatalf("%s: OnAlter sequence differs from the oracle's", name)
			}
			for i, code := range coding.Codes {
				if coding.Labels[code] != got.Tuple(i)[1] {
					t.Fatalf("%s: row %d coded %q, holds %q", name, i, coding.Labels[code], got.Tuple(i)[1])
				}
			}
			if (c.skip || c.budget > 0 || c.onAlter) && wantSt.TuplesMoved == 0 {
				t.Fatalf("%s: nothing moved — the hooks were never exercised", name)
			}
			if c.budget > 0 && wantSt.Residual == 0 {
				t.Fatalf("%s: the assessor vetoed nothing", name)
			}
			t.Logf("%s: moved %d, residual %d", name, wantSt.TuplesMoved, wantSt.Residual)
		}
	}
}

package numeric

import (
	"math"
	"sort"
	"strconv"
	"testing"

	"repro/internal/ecc"
	"repro/internal/keyhash"
	"repro/internal/stats"
)

func makeItems(seed string, n int) []Item {
	src := stats.NewSource("numeric-test/" + seed)
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			Label: "label-" + strconv.Itoa(i),
			Value: 100 + 20*normFloat64(src),
		}
	}
	return items
}

// normFloat64 draws a standard-normal variate from src by the polar
// Box–Muller method.
func normFloat64(src *stats.Source) float64 {
	for {
		u := 2*src.Float64() - 1
		v := 2*src.Float64() - 1
		if r2 := u*u + v*v; r2 > 0 && r2 < 1 {
			return u * math.Sqrt(-2*math.Log(r2)/r2)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	items := makeItems("rt", 400)
	p := DefaultParams(keyhash.NewKey("numeric-key"))
	wm := ecc.MustParseBits("10110100")
	marked, st, err := Encode(items, wm, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Failed) != 0 {
		t.Fatalf("failed subsets: %v", st.Failed)
	}
	if st.Moved == 0 {
		t.Fatal("nothing moved — encoding was free, suspicious")
	}
	rep, err := Decode(marked, len(wm), p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WM.String() != wm.String() {
		t.Fatalf("round trip: %s vs %s", wm, rep.WM)
	}
}

func TestEncodePreservesLabelsAndOrder(t *testing.T) {
	items := makeItems("order", 100)
	p := DefaultParams(keyhash.NewKey("k"))
	marked, _, err := Encode(items, ecc.MustParseBits("1010"), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(marked) != len(items) {
		t.Fatal("length changed")
	}
	for i := range items {
		if marked[i].Label != items[i].Label {
			t.Fatalf("label %d changed", i)
		}
	}
}

func TestEncodeDoesNotMutateInput(t *testing.T) {
	items := makeItems("immutable", 100)
	before := append([]Item(nil), items...)
	p := DefaultParams(keyhash.NewKey("k"))
	if _, _, err := Encode(items, ecc.MustParseBits("1100"), p); err != nil {
		t.Fatal(err)
	}
	for i := range items {
		if items[i] != before[i] {
			t.Fatal("Encode mutated its input")
		}
	}
}

func TestEncodeMinimality(t *testing.T) {
	// Total change should be small relative to the data scale: the scheme
	// nudges values just across the cut rather than rewriting them.
	items := makeItems("minimal", 400)
	p := DefaultParams(keyhash.NewKey("k"))
	_, st, err := Encode(items, ecc.MustParseBits("10110100"), p)
	if err != nil {
		t.Fatal(err)
	}
	perMove := st.TotalChange / math.Max(1, float64(st.Moved))
	// Values are N(100, 20); a per-move change above ~2σ would mean the
	// encoder is leaping, not nudging.
	if perMove > 40 {
		t.Fatalf("mean change per moved item %v too large", perMove)
	}
}

func TestDecodeRobustToSmallNoise(t *testing.T) {
	items := makeItems("noise", 600)
	p := DefaultParams(keyhash.NewKey("k"))
	wm := ecc.MustParseBits("110010")
	marked, _, err := Encode(items, wm, p)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb every value by a small relative amount (sampling noise after
	// an A1 attack on the underlying relation).
	src := stats.NewSource("noise-gen")
	noisy := append([]Item(nil), marked...)
	for i := range noisy {
		noisy[i].Value *= 1 + 0.002*(src.Float64()-0.5)
	}
	rep, err := Decode(noisy, len(wm), p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WM.String() != wm.String() {
		t.Fatalf("small noise broke decode: %s vs %s", wm, rep.WM)
	}
}

func TestDecodeEmptySubsetErased(t *testing.T) {
	// Single item: all other subsets are empty.
	items := []Item{{Label: "only", Value: 5}}
	p := DefaultParams(keyhash.NewKey("k"))
	rep, err := Decode(items, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Empty != 3 {
		t.Fatalf("empty subsets %d, want 3", rep.Empty)
	}
	erased := 0
	for _, b := range rep.WM {
		if b == ecc.Erased {
			erased++
		}
	}
	if erased != 3 {
		t.Fatalf("erased bits %d, want 3", erased)
	}
}

func TestEncodeFailsTinySubsets(t *testing.T) {
	// 8 items across 8 bits: subsets of ~1 item mostly cannot reach the
	// violator targets; failures must be reported, not silent.
	items := makeItems("tiny", 8)
	p := DefaultParams(keyhash.NewKey("k"))
	_, st, err := Encode(items, ecc.MustParseBits("10101010"), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Failed) == 0 {
		t.Fatal("no failures reported for starved subsets")
	}
}

func TestParamValidation(t *testing.T) {
	items := makeItems("v", 50)
	wm := ecc.MustParseBits("10")
	bad := []Params{
		{Key: nil, Confidence: 1, VTrue: 0.3, VFalse: 0.1},
		{Key: keyhash.NewKey("k"), Confidence: -1, VTrue: 0.3, VFalse: 0.1},
		{Key: keyhash.NewKey("k"), Confidence: 1, VTrue: 0.1, VFalse: 0.3},
		{Key: keyhash.NewKey("k"), Confidence: 1, VTrue: 1.5, VFalse: 0.1},
	}
	for i, p := range bad {
		if _, _, err := Encode(items, wm, p); err == nil {
			t.Errorf("params %d accepted by Encode", i)
		}
		if _, err := Decode(items, 2, p); err == nil {
			t.Errorf("params %d accepted by Decode", i)
		}
	}
}

func TestEncodeArgErrors(t *testing.T) {
	p := DefaultParams(keyhash.NewKey("k"))
	items := makeItems("a", 10)
	if _, _, err := Encode(items, ecc.Bits{}, p); err == nil {
		t.Error("empty wm accepted")
	}
	if _, _, err := Encode(items, ecc.Bits{ecc.Erased}, p); err == nil {
		t.Error("erased wm bit accepted")
	}
	if _, _, err := Encode(items[:1], ecc.MustParseBits("1010"), p); err == nil {
		t.Error("more bits than items accepted")
	}
	if _, err := Decode(items, 0, p); err == nil {
		t.Error("zero wmLen accepted")
	}
}

func TestGroupStability(t *testing.T) {
	key := keyhash.NewKey("group")
	for i := 0; i < 50; i++ {
		label := "x" + strconv.Itoa(i)
		g1 := Group(key, label, 10)
		g2 := Group(key, label, 10)
		if g1 != g2 || g1 < 0 || g1 >= 10 {
			t.Fatalf("Group unstable or out of range: %d vs %d", g1, g2)
		}
	}
}

func TestGroupKeyDependence(t *testing.T) {
	a, b := keyhash.NewKey("ga"), keyhash.NewKey("gb")
	diff := 0
	for i := 0; i < 200; i++ {
		label := "l" + strconv.Itoa(i)
		if Group(a, label, 16) != Group(b, label, 16) {
			diff++
		}
	}
	if diff < 150 {
		t.Fatalf("groups barely depend on key: %d/200 differ", diff)
	}
}

func TestSortByLabel(t *testing.T) {
	items := []Item{{"c", 1}, {"a", 2}, {"b", 3}}
	sorted := SortByLabel(items)
	if sorted[0].Label != "a" || sorted[2].Label != "c" {
		t.Fatalf("sort wrong: %v", sorted)
	}
	if items[0].Label != "c" {
		t.Fatal("SortByLabel mutated input")
	}
}

// Zipf-shaped values (like real frequency histograms) must also encode.
func TestEncodeZipfShapedValues(t *testing.T) {
	n := 300
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			Label: "item-" + strconv.Itoa(i),
			Value: 1000 / float64(i+1),
		}
	}
	p := DefaultParams(keyhash.NewKey("zipf"))
	wm := ecc.MustParseBits("101101")
	marked, st, err := Encode(items, wm, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Failed) != 0 {
		t.Fatalf("failed subsets on zipf data: %v", st.Failed)
	}
	rep, err := Decode(marked, len(wm), p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WM.String() != wm.String() {
		t.Fatalf("zipf round trip: %s vs %s", wm, rep.WM)
	}
}

// DefaultParams and SortByLabel are test helpers: the frequency channel
// builds its own Params (freq.Params), and no production caller sorts
// items.

// DefaultParams returns the parameter set the tests encode under: c=0.5
// with a (0.15, 0.35) decision gap.
func DefaultParams(key keyhash.Key) Params {
	return Params{Key: key, Confidence: 0.5, VTrue: 0.35, VFalse: 0.15}
}

// SortByLabel returns a copy of items sorted by label, for deterministic
// iteration in callers and tests.
func SortByLabel(items []Item) []Item {
	out := append([]Item(nil), items...)
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

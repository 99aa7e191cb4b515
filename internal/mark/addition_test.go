package mark

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"testing"

	"repro/internal/ecc"
	"repro/internal/keyhash"
	"repro/internal/relation"
	"repro/internal/stats"
)

// The Section 4.6 data-addition channel and the Section 4.3
// incremental-update hook, built on the production fitness test, bit
// positions and pair choice. No production path mints or inserts
// tuples, so they live beside their tests, which check that tuples
// added this way carry the mark the production detector reads.
//
// Data addition: instead of (or in addition to) altering existing tuples,
// mint new tuples whose keys satisfy the fitness criterion and whose
// categorical values carry watermark bits. The one-way hash does not
// prevent this: fitness only requires H(K;k1) ≡ 0 (mod e), a property one
// candidate key in e satisfies on average, so rejection sampling finds fit
// keys quickly. Added tuples conform to the attribute's empirical value
// distribution for stealthiness — their *pair choice* is drawn from the
// data's own histogram rather than uniformly.

// KeyMinter produces candidate primary-key values for synthetic tuples.
// Calls receive an increasing attempt counter; the minter must eventually
// produce values not present in the relation.
type KeyMinter func(attempt int) string

// SequentialKeys returns a KeyMinter yielding base+attempt as decimal
// strings — matching a sequence-allocated integer key column.
func SequentialKeys(base int) KeyMinter {
	return func(attempt int) string {
		return fmt.Sprintf("%d", base+attempt)
	}
}

// AdditionStats reports what AddTuples did.
type AdditionStats struct {
	// Added is the number of tuples appended.
	Added int
	// CandidatesTried is the number of minted keys tested for fitness
	// (≈ Added × e on average).
	CandidatesTried int
}

// AddTuples appends nAdd watermark-carrying fit tuples to r (Section 4.6).
// Non-watermarked attributes are sampled from r's empirical per-attribute
// value distributions; the watermarked attribute carries the correct
// wm_data bit for the minted key's position. The watermark wm must match
// the one embedded in r (same opts). maxAttempts bounds the rejection
// sampling (0 means 1000·e·nAdd).
//
// The effective bandwidth is computed from r's size *before* addition and
// should equal the embedding-time bandwidth; pass BandwidthOverride when
// the relation has changed size since embedding.
func AddTuples(r *relation.Relation, wm ecc.Bits, nAdd int, minter KeyMinter, seed string, opts Options, maxAttempts int) (AdditionStats, error) {
	var st AdditionStats
	keyCol, attrCol, dom, err := opts.resolve(r, true)
	if err != nil {
		return st, err
	}
	if nAdd < 0 {
		return st, errors.New("mark: negative addition count")
	}
	if nAdd == 0 {
		return st, nil
	}
	if len(wm) == 0 {
		return st, errors.New("mark: empty watermark")
	}
	bw := opts.bandwidth(r.Len())
	if bw < len(wm) {
		return st, fmt.Errorf("%w: |wm|=%d, N/e=%d", ErrInsufficientBandwidth, len(wm), bw)
	}
	wmData, err := opts.code().Encode(wm, bw)
	if err != nil {
		return st, err
	}
	if maxAttempts <= 0 {
		maxAttempts = 1000 * int(opts.E) * nAdd
	}

	// Empirical distributions for every non-key attribute, so synthetic
	// tuples blend into the data ("conforming to the overall data
	// distribution, in order to preserve stealthiness").
	src := stats.NewSource("mark-addition/" + seed)
	samplers := make([]*stats.Weighted, r.Schema().Arity())
	for col := 0; col < r.Schema().Arity(); col++ {
		if col == keyCol {
			continue
		}
		h, herr := relation.HistogramOf(r, r.Schema().Attr(col).Name)
		if herr != nil {
			return st, herr
		}
		labels, freqs := h.FreqVector()
		if len(labels) == 0 {
			return st, fmt.Errorf("mark: attribute %q has no values to sample", r.Schema().Attr(col).Name)
		}
		samplers[col] = stats.NewWeighted(labels, freqs)
	}
	// Pair-choice distribution over the watermarked attribute: weight each
	// (even, odd) pair by its empirical mass so added values look natural.
	pairWeights := make([]float64, dom.Size()/2)
	attrHist, err := relation.HistogramOf(r, opts.Attr)
	if err != nil {
		return st, err
	}
	for p := range pairWeights {
		w := attrHist.Freq(dom.Value(2*p)) + attrHist.Freq(dom.Value(2*p+1))
		pairWeights[p] = w + 1e-9 // keep every pair reachable
	}
	pairLabels := make([]string, len(pairWeights))
	for p := range pairLabels {
		pairLabels[p] = strconv.Itoa(p)
	}
	pairSampler := stats.NewWeighted(pairLabels, pairWeights)

	exists := make(map[string]bool, r.Len()+nAdd)
	for i := 0; i < r.Len(); i++ {
		exists[r.Key(i)] = true
	}
	for st.Added < nAdd {
		if st.CandidatesTried >= maxAttempts {
			return st, fmt.Errorf("mark: gave up after %d candidate keys (added %d of %d)",
				st.CandidatesTried, st.Added, nAdd)
		}
		keyVal := minter(st.CandidatesTried)
		st.CandidatesTried++
		if exists[keyVal] {
			continue
		}
		d1 := keyhash.HashString(opts.K1, keyVal)
		if !keyhash.Fit(d1, opts.E) {
			continue
		}
		pos := int(keyhash.HashString(opts.K2, keyVal).Mod(uint64(bw)))
		bit := int(wmData[pos])
		pair, _ := strconv.Atoi(pairSampler.Sample(src))
		value := dom.Value(2*pair + bit)

		t := make(relation.Tuple, r.Schema().Arity())
		for col := range t {
			switch col {
			case keyCol:
				t[col] = keyVal
			case attrCol:
				t[col] = value
			default:
				t[col] = samplers[col].Sample(src)
			}
		}
		if err := r.Append(t); err != nil {
			return st, err
		}
		exists[keyVal] = true
		st.Added++
	}
	return st, nil
}

// InsertWatermarked appends a tuple, first rewriting its categorical value
// if the tuple is fit — the Section 4.3 incremental-update path: "as
// updates occur to the data, the resulting tuples can be evaluated on the
// fly for fitness and watermarked accordingly". Returns whether the tuple
// was watermark-bearing. The bandwidth must be the embedding-time value
// (BandwidthOverride) so positions stay aligned as the relation grows.
func InsertWatermarked(r *relation.Relation, t relation.Tuple, wm ecc.Bits, opts Options) (bool, error) {
	keyCol, attrCol, dom, err := opts.resolve(r, true)
	if err != nil {
		return false, err
	}
	if len(t) != r.Schema().Arity() {
		return false, fmt.Errorf("mark: tuple arity %d, schema arity %d", len(t), r.Schema().Arity())
	}
	bw := opts.bandwidth(r.Len())
	if bw < len(wm) {
		return false, fmt.Errorf("%w: |wm|=%d, bandwidth=%d", ErrInsufficientBandwidth, len(wm), bw)
	}
	keyVal := t[keyCol]
	d1 := keyhash.HashString(opts.K1, keyVal)
	marked := false
	if keyhash.Fit(d1, opts.E) {
		wmData, cerr := opts.code().Encode(wm, bw)
		if cerr != nil {
			return false, cerr
		}
		pos := int(keyhash.HashString(opts.K2, keyVal).Mod(uint64(bw)))
		bit := uint64(wmData[pos])
		idx := keyhash.PairIndex(d1.Uint64At(1), dom.Size(), bit)
		t = slices.Clone(t)
		t[attrCol] = dom.Value(idx)
		marked = true
	}
	if err := r.Append(t); err != nil {
		return false, err
	}
	return marked, nil
}

func TestAddTuplesCarryWatermark(t *testing.T) {
	r, dom := testData(t, 6000)
	opts := testOptions(dom)
	wm := ecc.MustParseBits("1011001110")
	if _, err := Embed(r, wm, opts); err != nil {
		t.Fatal(err)
	}
	bw := Bandwidth(r.Len(), opts.E)

	addOpts := opts
	addOpts.BandwidthOverride = bw
	st, err := AddTuples(r, wm, 200, SequentialKeys(5_000_000), "add-test", addOpts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Added != 200 {
		t.Fatalf("added %d, want 200", st.Added)
	}
	// Rejection sampling should try ≈ e per hit (plus non-fit skips).
	if st.CandidatesTried < 200 || st.CandidatesTried > 200*int(opts.E)*10 {
		t.Fatalf("candidates tried %d implausible for e=%d", st.CandidatesTried, opts.E)
	}
	// Every added tuple is fit and parity-correct.
	wmData, _ := ecc.MajorityCode{}.Encode(wm, bw)
	for i := r.Len() - 200; i < r.Len(); i++ {
		key := r.Key(i)
		if !keyhash.Fit(keyhash.HashString(opts.K1, key), opts.E) {
			t.Fatalf("added tuple %d not fit", i)
		}
		v, _ := r.Value(i, "Item_Nbr")
		idx, ok := dom.Index(v)
		if !ok {
			t.Fatalf("added tuple value %q outside domain", v)
		}
		pos := int(keyhash.HashString(opts.K2, key).Mod(uint64(bw)))
		if uint8(idx&1) != wmData[pos] {
			t.Fatalf("added tuple %d parity mismatch", i)
		}
	}
	// Detection on the enlarged relation still recovers the watermark.
	detOpts := opts
	detOpts.BandwidthOverride = bw
	rep, err := Detect(r, len(wm), detOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WM.String() != wm.String() {
		t.Fatalf("post-addition detection: %s vs %s", wm, rep.WM)
	}
}

func TestAddTuplesReinforcesAgainstLoss(t *testing.T) {
	// Section 4.6: p_add·N extra bits strengthen the mark. Verify added
	// tuples vote correctly by detecting on the added tuples alone.
	r, dom := testData(t, 6000)
	opts := testOptions(dom)
	wm := ecc.MustParseBits("10110011")
	if _, err := Embed(r, wm, opts); err != nil {
		t.Fatal(err)
	}
	bw := Bandwidth(r.Len(), opts.E)
	n0 := r.Len()
	addOpts := opts
	addOpts.BandwidthOverride = bw
	if _, err := AddTuples(r, wm, 300, SequentialKeys(7_000_000), "reinforce", addOpts, 0); err != nil {
		t.Fatal(err)
	}
	added := make([]int, 0, r.Len()-n0)
	for i := n0; i < r.Len(); i++ {
		added = append(added, i)
	}
	onlyAdded, err := r.SelectRows(added)
	if err != nil {
		t.Fatal(err)
	}
	detOpts := opts
	detOpts.BandwidthOverride = bw
	rep, err := Detect(onlyAdded, len(wm), detOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MatchFraction(wm) < 0.85 {
		t.Fatalf("added-only detection match %v", rep.MatchFraction(wm))
	}
}

func TestAddTuplesZero(t *testing.T) {
	r, dom := testData(t, 2000)
	opts := testOptions(dom)
	st, err := AddTuples(r, ecc.MustParseBits("1010"), 0, SequentialKeys(1), "z", opts, 0)
	if err != nil || st.Added != 0 {
		t.Fatalf("zero addition: %+v, %v", st, err)
	}
}

func TestAddTuplesErrors(t *testing.T) {
	r, dom := testData(t, 2000)
	opts := testOptions(dom)
	if _, err := AddTuples(r, ecc.MustParseBits("1010"), -1, SequentialKeys(1), "n", opts, 0); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := AddTuples(r, ecc.Bits{}, 5, SequentialKeys(1), "n", opts, 0); err == nil {
		t.Error("empty wm accepted")
	}
	// Exhausted attempts: a minter that always collides.
	stuck := func(int) string { return r.Key(0) }
	if _, err := AddTuples(r, ecc.MustParseBits("1010"), 5, stuck, "n", opts, 50); err == nil {
		t.Error("stuck minter did not error")
	}
}

func TestSequentialKeys(t *testing.T) {
	m := SequentialKeys(100)
	if m(0) != "100" || m(5) != "105" {
		t.Fatalf("minter output %s, %s", m(0), m(5))
	}
}

func TestInsertWatermarkedFitTuple(t *testing.T) {
	r, dom := testData(t, 6000)
	opts := testOptions(dom)
	wm := ecc.MustParseBits("1011001110")
	if _, err := Embed(r, wm, opts); err != nil {
		t.Fatal(err)
	}
	bw := Bandwidth(r.Len(), opts.E)
	insOpts := opts
	insOpts.BandwidthOverride = bw

	// Find a fit key not in the relation.
	var fitKey, unfitKey string
	for i := 0; fitKey == "" || unfitKey == ""; i++ {
		k := strconv.Itoa(8_000_000 + i)
		if keyhash.Fit(keyhash.HashString(opts.K1, k), opts.E) {
			if fitKey == "" {
				fitKey = k
			}
		} else if unfitKey == "" {
			unfitKey = k
		}
	}

	marked, err := InsertWatermarked(r, relation.Tuple{fitKey, dom.Value(0)}, wm, insOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !marked {
		t.Fatal("fit tuple not marked")
	}
	// Inserted fit tuple carries the right parity.
	i := r.Len() - 1 // the inserted tuple
	v, _ := r.Value(i, "Item_Nbr")
	idx, _ := dom.Index(v)
	wmData, _ := ecc.MajorityCode{}.Encode(wm, bw)
	pos := int(keyhash.HashString(opts.K2, fitKey).Mod(uint64(bw)))
	if uint8(idx&1) != wmData[pos] {
		t.Fatal("inserted tuple parity mismatch")
	}

	marked, err = InsertWatermarked(r, relation.Tuple{unfitKey, dom.Value(3)}, wm, insOpts)
	if err != nil {
		t.Fatal(err)
	}
	if marked {
		t.Fatal("unfit tuple reported as marked")
	}
	j := r.Len() - 1
	if v, _ := r.Value(j, "Item_Nbr"); v != dom.Value(3) {
		t.Fatal("unfit tuple's value was rewritten")
	}
}

func TestInsertWatermarkedArityError(t *testing.T) {
	r, dom := testData(t, 2000)
	opts := testOptions(dom)
	if _, err := InsertWatermarked(r, relation.Tuple{"1"}, ecc.MustParseBits("1010"), opts); err == nil {
		t.Fatal("bad arity accepted")
	}
}

// End-to-end incremental scenario: watermark, then stream inserts through
// InsertWatermarked; detection still recovers the mark.
func TestIncrementalUpdatesPreserveMark(t *testing.T) {
	r, dom := testData(t, 6000)
	opts := testOptions(dom)
	wm := ecc.MustParseBits("1011001110")
	if _, err := Embed(r, wm, opts); err != nil {
		t.Fatal(err)
	}
	bw := Bandwidth(r.Len(), opts.E)
	insOpts := opts
	insOpts.BandwidthOverride = bw
	for i := 0; i < 1000; i++ {
		tuple := relation.Tuple{strconv.Itoa(6_500_000 + i), dom.Value(i % dom.Size())}
		if _, err := InsertWatermarked(r, tuple, wm, insOpts); err != nil {
			t.Fatal(err)
		}
	}
	detOpts := opts
	detOpts.BandwidthOverride = bw
	rep, err := Detect(r, len(wm), detOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WM.String() != wm.String() {
		t.Fatalf("incremental inserts broke the mark: %s vs %s", wm, rep.WM)
	}
}

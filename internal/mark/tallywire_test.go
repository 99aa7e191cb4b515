package mark

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/ecc"
	"repro/internal/keyhash"
	"repro/internal/relation"
)

// TestTallyWireGoldenJSON pins the wire encoding byte-for-byte: coordinator
// and worker may run different builds, so the serialized shape is a
// compatibility contract, not an implementation detail.
func TestTallyWireGoldenJSON(t *testing.T) {
	tally := &Tally{
		Rows:          7,
		Fit:           4,
		UnknownValues: 1,
		Votes: []ecc.VoteTally{
			{Zeros: 2, Ones: 0},
			{Zeros: 0, Ones: 1},
			{Zeros: 0, Ones: 0},
		},
		Last: []uint8{ecc.Zero, ecc.One, ecc.Erased},
	}
	data, err := json.Marshal(tally.Wire())
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{"rows":7,"fit":4,"unknown_values":1,"zeros":[2,0,0],"ones":[0,1,0],"last":"AAH/"}`
	if string(data) != golden {
		t.Fatalf("wire JSON drifted:\n got  %s\n want %s", data, golden)
	}

	var w TallyWire
	if err := json.Unmarshal([]byte(golden), &w); err != nil {
		t.Fatal(err)
	}
	back, err := w.Tally()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, tally) {
		t.Fatalf("golden round-trip diverged:\n got  %+v\n want %+v", back, tally)
	}
	if w.Bandwidth() != 3 {
		t.Fatalf("Bandwidth() = %d, want 3", w.Bandwidth())
	}
}

// TestTallyWireRoundTripMergesIdentically is the property test behind the
// distributed-audit contract: splitting a scan into range tallies, passing
// each through encode(JSON(decode)) as a shard response would, and merging
// the decoded partials in row order yields exactly the single-pass tally
// and report — for both vote aggregations. Shard boundaries are randomized
// (including empty and single-row ranges).
func TestTallyWireRoundTripMergesIdentically(t *testing.T) {
	r := tallyWireTestRelation(t)
	wm := ecc.MustParseBits("110100101101")
	rng := rand.New(rand.NewSource(23))
	for _, agg := range []VoteAggregation{MajorityVote, LastWriteWins} {
		opts := Options{
			Attr: "cat", K1: keyhash.NewKey("tw-k1"), K2: keyhash.NewKey("tw-k2"),
			E: 3, Aggregation: agg,
		}
		if _, err := Embed(r, wm, opts); err != nil {
			t.Fatal(err)
		}
		sc, err := NewScanner(r, len(wm), opts)
		if err != nil {
			t.Fatal(err)
		}
		whole := sc.NewTally()
		if err := sc.Scan(r, 0, r.Len(), DefaultBlockRows, whole, nil, nil, nil); err != nil {
			t.Fatal(err)
		}

		for trial := 0; trial < 25; trial++ {
			// Random contiguous partition of [0, len) into 1..8 shards.
			cuts := []int{0, r.Len()}
			for k := rng.Intn(8); k > 0; k-- {
				cuts = append(cuts, rng.Intn(r.Len()+1))
			}
			sortInts(cuts)

			total := sc.NewTally()
			for i := 0; i+1 < len(cuts); i++ {
				part := sc.NewTally()
				if err := sc.Scan(r, cuts[i], cuts[i+1], DefaultBlockRows, part, nil, nil, nil); err != nil {
					t.Fatal(err)
				}
				data, err := json.Marshal(part.Wire())
				if err != nil {
					t.Fatal(err)
				}
				var w TallyWire
				if err := json.Unmarshal(data, &w); err != nil {
					t.Fatal(err)
				}
				decoded, err := w.Tally()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(decoded, part) {
					t.Fatalf("%v trial %d: round-trip changed the partial tally", agg, trial)
				}
				total.Merge(decoded)
			}
			if !reflect.DeepEqual(total, whole) {
				t.Fatalf("%v trial %d: merged wire partials diverged from single pass", agg, trial)
			}
			wantRep, err := sc.Report(whole)
			if err != nil {
				t.Fatal(err)
			}
			gotRep, err := sc.Report(total)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotRep, wantRep) {
				t.Fatalf("%v trial %d: report mismatch", agg, trial)
			}
		}
	}
}

// TestTallyWireOutOfOrderShardCompletion models the coordinator's collect
// path: shard results ARRIVE in arbitrary completion order, are parked by
// shard index, and are merged in row order once all are in. The result
// must match the sequential pass exactly — in particular the
// LastWriteWins column, which a completion-order merge would corrupt.
func TestTallyWireOutOfOrderShardCompletion(t *testing.T) {
	r := tallyWireTestRelation(t)
	wm := ecc.MustParseBits("1010011100")
	rng := rand.New(rand.NewSource(7))
	for _, agg := range []VoteAggregation{MajorityVote, LastWriteWins} {
		opts := Options{
			Attr: "cat", K1: keyhash.NewKey("oo-k1"), K2: keyhash.NewKey("oo-k2"),
			E: 2, Aggregation: agg,
		}
		if _, err := Embed(r, wm, opts); err != nil {
			t.Fatal(err)
		}
		sc, err := NewScanner(r, len(wm), opts)
		if err != nil {
			t.Fatal(err)
		}
		whole := sc.NewTally()
		if err := sc.Scan(r, 0, r.Len(), DefaultBlockRows, whole, nil, nil, nil); err != nil {
			t.Fatal(err)
		}

		const shardRows = 97 // ragged tail on purpose
		var ranges [][2]int
		for lo := 0; lo < r.Len(); lo += shardRows {
			ranges = append(ranges, [2]int{lo, min(lo+shardRows, r.Len())})
		}
		// Complete the shards in a shuffled order, parking wire results by
		// shard index as the scheduler does.
		parked := make([]*Tally, len(ranges))
		for _, i := range rng.Perm(len(ranges)) {
			part := sc.NewTally()
			if err := sc.Scan(r, ranges[i][0], ranges[i][1], DefaultBlockRows, part, nil, nil, nil); err != nil {
				t.Fatal(err)
			}
			decoded, err := part.Wire().Tally()
			if err != nil {
				t.Fatal(err)
			}
			parked[i] = decoded
		}
		total := sc.NewTally()
		for _, part := range parked {
			total.Merge(part)
		}
		if !reflect.DeepEqual(total, whole) {
			t.Fatalf("%v: in-order merge of out-of-order completions diverged", agg)
		}
		rep, err := sc.Report(total)
		if err != nil {
			t.Fatal(err)
		}
		if rep.WM.String() != wm.String() {
			t.Fatalf("%v: recovered %s, want %s", agg, rep.WM, wm)
		}
	}
}

// TestTallyWireRejectsMalformed exercises the trust-boundary validation:
// mismatched arrays, negative counters, and junk last-vote bytes must
// error instead of panicking a later Merge or Report.
func TestTallyWireRejectsMalformed(t *testing.T) {
	cases := map[string]TallyWire{
		"array mismatch":    {Zeros: []int{0, 1}, Ones: []int{0}, Last: []byte{0, 1}},
		"last mismatch":     {Zeros: []int{0}, Ones: []int{0}, Last: []byte{}},
		"negative rows":     {Rows: -1},
		"negative fit":      {Fit: -3},
		"negative unknown":  {UnknownValues: -2},
		"negative votes":    {Zeros: []int{-1}, Ones: []int{0}, Last: []byte{0xFF}},
		"invalid last byte": {Zeros: []int{0}, Ones: []int{0}, Last: []byte{0x07}},
	}
	for name, w := range cases {
		if _, err := w.Tally(); err == nil {
			t.Errorf("%s: Tally() accepted malformed wire %+v", name, w)
		}
	}
}

func tallyWireTestRelation(t *testing.T) *relation.Relation {
	t.Helper()
	schema := relation.MustSchema([]relation.Attribute{
		{Name: "id", Type: relation.TypeInt},
		{Name: "cat", Type: relation.TypeString, Categorical: true},
	}, "id")
	r := relation.New(schema)
	values := []string{"aa", "bb", "cc", "dd", "ee"}
	for i := 0; i < 700; i++ {
		r.MustAppend(relation.Tuple{strconv.Itoa(i), values[i%len(values)]})
	}
	return r
}

// sortInts is a tiny insertion sort — the slices here are single digits
// long, and it avoids importing sort for one call.
func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// FuzzTallyWireBinary holds the binary form to the JSON one:
//   - a tally built from the fuzz input survives binary encode/decode
//     exactly, and its JSON form through the binary round trip is
//     unchanged;
//   - arbitrary bytes never panic the decoder, and it allocates no more
//     than the input justifies (8 bytes per decoded count, 1 per Last
//     byte, each backed by at least one input byte);
//   - every accepted input re-encodes to the same bytes, directly and
//     after a JSON round trip.
func FuzzTallyWireBinary(f *testing.F) {
	golden := TallyWire{Rows: 7, Fit: 4, UnknownValues: 1, Zeros: []int{2, 0, 0}, Ones: []int{0, 1, 0}, Last: []byte{0, 1, 0xFF}}
	enc, err := golden.AppendBinary(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{0x80, 0x00, 0, 0, 0, 0, 0})                                     // non-minimal uvarint
	f.Add([]byte{1, 1, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0})                   // length past the input
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0}) // over MaxInt
	f.Fuzz(func(t *testing.T, data []byte) {
		// Build a tally from the input: one position per byte.
		built := TallyWire{Rows: len(data), Fit: len(data) / 2, Zeros: make([]int, len(data)), Ones: make([]int, len(data)), Last: make([]byte, len(data))}
		for i, c := range data {
			built.Zeros[i], built.Ones[i], built.Last[i] = int(c)<<(c%40), int(c&7), c
		}
		bin, err := built.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		var back TallyWire
		if err := back.UnmarshalBinary(bin); err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if !reflect.DeepEqual(back, built) || !sameJSON(t, back, built) {
			t.Fatalf("binary round trip diverged:\n got  %+v\n want %+v", back, built)
		}

		var w TallyWire
		if alloc := decodeAlloc(func() { err = w.UnmarshalBinary(data) }); alloc > uint64(16*len(data)+1024) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		again, err := w.AppendBinary(nil)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("accepted input re-encodes to %x (err %v), want %x", again, err, data)
		}
		js, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		var viaJSON TallyWire
		if err := json.Unmarshal(js, &viaJSON); err != nil {
			t.Fatal(err)
		}
		if again, err = viaJSON.AppendBinary(nil); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("JSON round trip re-encodes to %x (err %v), want %x", again, err, data)
		}
	})
}

// decodeAlloc reports the bytes fn allocates. The counter is process
// wide, so other goroutines (the fuzz engine's) can only inflate it:
// the least of three runs is the measurement.
func decodeAlloc(fn func()) uint64 {
	var least uint64 = math.MaxUint64
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

func sameJSON(t *testing.T, a, b TallyWire) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ja, jb)
}

// TestTallyWireBinaryGolden pins the binary form byte-for-byte, like
// the JSON golden: it is the shard reply's compatibility contract.
func TestTallyWireBinaryGolden(t *testing.T) {
	w := TallyWire{Rows: 300, Fit: 4, UnknownValues: 1, Zeros: []int{2, 0, 0}, Ones: []int{0, 1, 0}, Last: []byte{0, 1, 0xFF}}
	got, err := w.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0xac, 0x02, 4, 1, 3, 2, 0, 0, 3, 0, 1, 0, 3, 0, 1, 0xff}
	if !bytes.Equal(got, want) {
		t.Fatalf("binary form drifted:\n got  %x\n want %x", got, want)
	}
	for _, bad := range []TallyWire{{Rows: -1}, {Zeros: []int{-1}}, {Ones: []int{0, -2}}} {
		if _, err := bad.AppendBinary(nil); err == nil {
			t.Fatalf("negative counts encoded: %+v", bad)
		}
	}
}

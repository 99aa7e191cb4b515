package mark

import (
	"reflect"
	"strconv"
	"testing"

	"repro/internal/ecc"
	"repro/internal/keyhash"
	"repro/internal/relation"
)

// TestScanTupleMatchesScan proves the per-tuple entry point is the vote
// kernel Scan is built from: feeding every tuple through ScanTuple —
// including split across multiple tallies merged in scan order — yields
// the same tally and the same decoded report as one Scan over the whole
// relation, for both vote-aggregation policies.
func TestScanTupleMatchesScan(t *testing.T) {
	r := scanTupleTestRelation(t)
	wm := ecc.MustParseBits("1011001110")
	for _, agg := range []VoteAggregation{MajorityVote, LastWriteWins} {
		opts := Options{
			Attr: "cat", K1: keyhash.NewKey("st-k1"), K2: keyhash.NewKey("st-k2"),
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

		// One tuple at a time into a single tally.
		single := sc.NewTally()
		for j := 0; j < r.Len(); j++ {
			sc.ScanTuple(r.Tuple(j), single)
		}
		if !reflect.DeepEqual(whole, single) {
			t.Fatalf("%v: tuple-at-a-time tally diverged from Scan", agg)
		}

		// Split across per-tuple tallies, merged in scan order — the
		// streaming fan-out shape. Last-write-wins depends on this order.
		merged := sc.NewTally()
		for j := 0; j < r.Len(); j++ {
			part := sc.NewTally()
			sc.ScanTuple(r.Tuple(j), part)
			merged.Merge(part)
		}
		if !reflect.DeepEqual(whole, merged) {
			t.Fatalf("%v: merged per-tuple tallies diverged from Scan", agg)
		}

		wantRep, err := sc.Report(whole)
		if err != nil {
			t.Fatal(err)
		}
		gotRep, err := sc.Report(merged)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantRep, gotRep) {
			t.Fatalf("%v: report mismatch:\n got %+v\nwant %+v", agg, gotRep, wantRep)
		}
		if gotRep.WM.String() != wm.String() {
			t.Fatalf("%v: recovered %s, want %s", agg, gotRep.WM, wm)
		}
	}
}

func scanTupleTestRelation(t *testing.T) *relation.Relation {
	t.Helper()
	schema := relation.MustSchema([]relation.Attribute{
		{Name: "id", Type: relation.TypeInt},
		{Name: "cat", Type: relation.TypeString, Categorical: true},
	}, "id")
	r := relation.New(schema)
	values := []string{"a", "b", "c", "d"}
	for i := 0; i < 600; i++ {
		r.MustAppend(relation.Tuple{strconv.Itoa(i), values[i%len(values)]})
	}
	return r
}

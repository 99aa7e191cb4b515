package mark

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/ecc"
	"repro/internal/relation"
)

// chunkBoundaries carves n rows into the given number of ranges.
func chunkBoundaries(n, chunks int) [][2]int {
	var out [][2]int
	per := n / chunks
	if per == 0 {
		per = 1
	}
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n || len(out) == chunks-1 {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
		if hi == n {
			break
		}
	}
	return out
}

func TestEmbedRangeChunkedEqualsSequential(t *testing.T) {
	wm := ecc.MustParseBits("1011001110")
	for _, chunks := range []int{2, 3, 7} {
		seqRel, dom := testData(t, 6000)
		chunkRel := seqRel.Clone()
		opts := testOptions(dom)

		seqStats, err := Embed(seqRel, wm, opts)
		if err != nil {
			t.Fatal(err)
		}

		em, err := NewEmbedder(chunkRel, wm, opts)
		if err != nil {
			t.Fatal(err)
		}
		var parts []ChunkStats
		for _, b := range chunkBoundaries(chunkRel.Len(), chunks) {
			var cs ChunkStats
			if err := em.EmbedRange(b[0], b[1], DefaultBlockRows, &cs, nil, nil); err != nil {
				t.Fatal(err)
			}
			parts = append(parts, cs)
		}
		merged := MergeChunks(parts...)

		if !seqRel.Equal(chunkRel) {
			t.Fatalf("%d chunks: chunked embedding altered different tuples", chunks)
		}
		if merged != seqStats {
			t.Fatalf("%d chunks: stats diverge:\nseq:    %+v\nmerged: %+v", chunks, seqStats, merged)
		}
	}
}

func TestScannerChunkedEqualsSequential(t *testing.T) {
	r, dom := testData(t, 6000)
	opts := testOptions(dom)
	wm := ecc.MustParseBits("1011001110")
	if _, err := Embed(r, wm, opts); err != nil {
		t.Fatal(err)
	}

	for _, agg := range []VoteAggregation{MajorityVote, LastWriteWins} {
		opts.Aggregation = agg
		seq, err := Detect(r, len(wm), opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunks := range []int{2, 5} {
			sc, err := NewScanner(r, len(wm), opts)
			if err != nil {
				t.Fatal(err)
			}
			var total *Tally
			for _, b := range chunkBoundaries(r.Len(), chunks) {
				part := sc.NewTally()
				if err := sc.Scan(r, b[0], b[1], DefaultBlockRows, part, nil, nil, nil); err != nil {
					t.Fatal(err)
				}
				if total == nil {
					total = part
				} else {
					total.Merge(part)
				}
			}
			rep, err := sc.Report(total)
			if err != nil {
				t.Fatal(err)
			}
			if rep.WM.String() != seq.WM.String() {
				t.Fatalf("%v/%d chunks: detected %s, sequential %s", agg, chunks, rep.WM, seq.WM)
			}
			seqNoWM, repNoWM := seq, rep
			seqNoWM.WM, repNoWM.WM = nil, nil
			if !reflect.DeepEqual(repNoWM, seqNoWM) {
				t.Fatalf("%v/%d chunks: reports diverge:\nseq:     %+v\nchunked: %+v", agg, chunks, seqNoWM, repNoWM)
			}
		}
	}
}

func TestEmbedRangeBounds(t *testing.T) {
	r, dom := testData(t, 500)
	em, err := NewEmbedder(r, ecc.MustParseBits("101"), func() Options {
		o := testOptions(dom)
		o.E = 10
		return o
	}())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][2]int{{-1, 10}, {0, 501}, {400, 300}} {
		if err := em.EmbedRange(b[0], b[1], DefaultBlockRows, &ChunkStats{}, nil, nil); err == nil {
			t.Fatalf("range [%d,%d): expected error", b[0], b[1])
		}
	}
}

// TestStreamEmbedderRequiresExplicitParams pins the stream-side
// preparation contract: a pass over data of unknown length cannot
// derive the value catalog or |wm_data|, so NewStreamScanner refuses to
// guess either.
func TestStreamEmbedderRequiresExplicitParams(t *testing.T) {
	_, dom := testData(t, 100)
	schema := relation.MustSchema([]relation.Attribute{
		{Name: "Visit_Nbr", Type: relation.TypeInt},
		{Name: "Item_Nbr", Type: relation.TypeInt, Categorical: true},
	}, "Visit_Nbr")

	noDomain := testOptions(nil)
	noDomain.BandwidthOverride = 64
	if _, err := NewStreamScanner(schema, 3, noDomain); err == nil || !strings.Contains(err.Error(), "Domain") {
		t.Fatalf("expected explicit-domain error, got %v", err)
	}

	noBW := testOptions(dom)
	if _, err := NewStreamScanner(schema, 3, noBW); err == nil || !strings.Contains(err.Error(), "BandwidthOverride") {
		t.Fatalf("expected bandwidth error, got %v", err)
	}
}

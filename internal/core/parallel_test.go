package core

import (
	"testing"
)

// TestParallelWatermarkEqualsSequential: the Spec.Workers pipeline path
// must produce the identical watermarked relation, certificate and stats
// as the sequential default.
func TestParallelWatermarkEqualsSequential(t *testing.T) {
	seqRel, dom := coreData(t, 12000)
	parRel := seqRel.Clone()
	spec := Spec{
		Secret:    "parallel-owner-secret",
		Attribute: "Item_Nbr",
		WM:        "1011001110",
		E:         40,
		Domain:    dom,
	}

	seqRec, seqStats, err := Watermark(seqRel, spec)
	if err != nil {
		t.Fatal(err)
	}
	pSpec := spec
	pSpec.Workers = 4
	parRec, parStats, err := Watermark(parRel, pSpec)
	if err != nil {
		t.Fatal(err)
	}

	if !seqRel.Equal(parRel) {
		t.Fatal("parallel watermarking altered different tuples")
	}
	if seqStats != parStats {
		t.Fatalf("stats diverge:\nseq: %+v\npar: %+v", seqStats, parStats)
	}
	seqJSON, err := seqRec.Save()
	if err != nil {
		t.Fatal(err)
	}
	parJSON, err := parRec.Save()
	if err != nil {
		t.Fatal(err)
	}
	if string(seqJSON) != string(parJSON) {
		t.Fatalf("certificates diverge:\nseq: %s\npar: %s", seqJSON, parJSON)
	}
}

// TestVerifyParallelBitIdentical: parallel verification must recover the
// identical bit string as the sequential VerifyWith, marked or unmarked
// data alike.
func TestVerifyParallelBitIdentical(t *testing.T) {
	r, dom := coreData(t, 12000)
	pristine := r.Clone()
	rec, _, err := Watermark(r, Spec{
		Secret:    "parallel-owner-secret",
		Attribute: "Item_Nbr",
		WM:        "1011001110",
		E:         40,
		Domain:    dom,
	})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := rec.VerifyWith(r, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 7, -1, 0} {
		par, err := rec.VerifyWith(r, VerifyOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if par.Detected != seq.Detected || par.Match != seq.Match {
			t.Fatalf("workers=%d: parallel %q (%v), sequential %q (%v)",
				workers, par.Detected, par.Match, seq.Detected, seq.Match)
		}
	}

	seqP, err := rec.VerifyWith(pristine, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	parP, err := rec.VerifyWith(pristine, VerifyOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if parP.Detected != seqP.Detected || parP.Match != seqP.Match {
		t.Fatalf("unmarked data: parallel %q (%v), sequential %q (%v)",
			parP.Detected, parP.Match, seqP.Detected, seqP.Match)
	}
}

package analysis

import (
	"math"
	"testing"
)

// The paper's Section 3.1 example: n_A = 16000 departure cities yield only
// ~14 bits of direct-domain entropy.
func TestDirectDomainEntropyPaperExample(t *testing.T) {
	bits := DirectDomainEntropy(16000)
	if bits < 13.9 || bits > 14.0 {
		t.Fatalf("entropy of 16000 values = %v bits, paper says ~14", bits)
	}
	if DirectDomainEntropy(1) != 0 || DirectDomainEntropy(0) != 0 {
		t.Fatal("degenerate domains should have zero entropy")
	}
}

func TestAssociationBandwidth(t *testing.T) {
	if got := AssociationBandwidth(6000, 60); got != 100 {
		t.Fatalf("bandwidth %d, want 100", got)
	}
	if AssociationBandwidth(100, 0) != 0 {
		t.Fatal("e=0 should yield zero bandwidth")
	}
}

func TestReplicasPerBit(t *testing.T) {
	if got := ReplicasPerBit(6000, 60, 10); got != 10 {
		t.Fatalf("replicas %d, want 10", got)
	}
	if ReplicasPerBit(6000, 60, 0) != 0 {
		t.Fatal("zero wmLen should yield zero replicas")
	}
}

func TestPerBitErrorRateBehaviour(t *testing.T) {
	// More replicas monotonically reduce the error at fixed q.
	prev := 1.0
	for _, r := range []int{1, 3, 9, 27, 81} {
		e := PerBitErrorRate(r, 0.3)
		if e > prev+1e-12 {
			t.Fatalf("error rate not decreasing: %d replicas -> %v (prev %v)", r, e, prev)
		}
		prev = e
	}
	// Zero flip rate means zero error (any replicas).
	if e := PerBitErrorRate(9, 0); e != 0 {
		t.Fatalf("q=0 error %v", e)
	}
	// No replicas means certain error.
	if e := PerBitErrorRate(0, 0.1); e != 1 {
		t.Fatalf("0 replicas error %v", e)
	}
}

func TestMaxWatermarkBitsMonotonicity(t *testing.T) {
	// Harsher attacks permit fewer bits.
	easy, err := MaxWatermarkBits(20000, 65, 0.1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	hard, err := MaxWatermarkBits(20000, 65, 0.4, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if hard > easy {
		t.Fatalf("capacity grew with attack severity: %d > %d", hard, easy)
	}
	if easy <= 0 {
		t.Fatal("easy case should permit bits")
	}
	// Feasibility: the returned size actually meets the target.
	bw := AssociationBandwidth(20000, 65)
	if e := PerBitErrorRate(bw/easy, 0.1); e > 0.01 {
		t.Fatalf("reported capacity violates target: %v", e)
	}
	// And one more bit would not (unless already at bandwidth).
	if easy < bw {
		if e := PerBitErrorRate(bw/(easy+1), 0.1); e <= 0.01 {
			t.Fatalf("capacity not maximal: %d+1 still feasible (err %v)", easy, e)
		}
	}
}

func TestMaxWatermarkBitsValidation(t *testing.T) {
	cases := []struct {
		n      int
		e      uint64
		q, tgt float64
	}{
		{0, 60, 0.1, 0.01},
		{100, 0, 0.1, 0.01},
		{100, 10, 0.6, 0.01},
		{100, 10, -0.1, 0.01},
		{100, 10, 0.1, 0},
		{100, 10, 0.1, 1},
	}
	for i, c := range cases {
		if _, err := MaxWatermarkBits(c.n, c.e, c.q, c.tgt); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestVoteFlipRate(t *testing.T) {
	if got := VoteFlipRate(0.8); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("flip rate %v, want 0.4", got)
	}
	if VoteFlipRate(-1) != 0 {
		t.Fatal("negative attack should clamp to 0")
	}
	if got := VoteFlipRate(2); got != 0.5 {
		t.Fatalf("oversized attack should clamp to 0.5, got %v", got)
	}
}

func TestFrequencyChannelBits(t *testing.T) {
	if got := FrequencyChannelBits(400, 0); got != 50 {
		t.Fatalf("capacity %d, want 50 with the default subset size", got)
	}
	if got := FrequencyChannelBits(25, 8); got != 3 {
		t.Fatalf("capacity %d, want 3", got)
	}
	if FrequencyChannelBits(5, 8) != 0 {
		t.Fatal("too few labels should yield zero capacity")
	}
}

func TestCapacityReport(t *testing.T) {
	rep, err := Capacity(20000, 65, 1000, 0.5, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AssociationBits != 307 {
		t.Fatalf("association bits %d", rep.AssociationBits)
	}
	if rep.RobustBits <= 0 || rep.RobustBits > rep.AssociationBits {
		t.Fatalf("robust bits %d out of range", rep.RobustBits)
	}
	if rep.DirectDomainBits < 9.9 || rep.DirectDomainBits > 10 {
		t.Fatalf("direct bits %v for 1000 values", rep.DirectDomainBits)
	}
	if rep.FrequencyBits != 125 {
		t.Fatalf("frequency bits %d", rep.FrequencyBits)
	}
	if rep.AlterationBudget <= 0 || rep.AlterationBudget > 0.02 {
		t.Fatalf("budget %v", rep.AlterationBudget)
	}
	// The whole point of Section 3.1: the association channel beats the
	// direct domain by orders of magnitude.
	if float64(rep.AssociationBits) < rep.DirectDomainBits*10 {
		t.Fatal("association channel should dwarf direct-domain entropy")
	}
}

// ReplicasPerBit returns how many wm_data positions replicate each
// watermark bit under the interleaved majority code.
func ReplicasPerBit(n int, e uint64, wmLen int) int {
	if wmLen <= 0 {
		return 0
	}
	return AssociationBandwidth(n, e) / wmLen
}

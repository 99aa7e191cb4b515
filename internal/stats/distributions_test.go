package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145705},
		{1.28, 0.8997274320455896}, // the paper's 10% threshold z
		{2, 0.9772498680518208},
		{-3, 0.0013498980316300933},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormalSurvivalComplement(t *testing.T) {
	for _, x := range []float64{-4, -1, 0, 0.5, 1.28, 3, 6} {
		if s := NormalCDF(x) + NormalSurvival(x); math.Abs(s-1) > 1e-12 {
			t.Errorf("CDF+Survival at %v = %v, want 1", x, s)
		}
	}
	// Deep tail keeps precision where 1-CDF would round to 0.
	if s := NormalSurvival(10); s <= 0 || s > 1e-20 {
		t.Errorf("Survival(10) = %v, want tiny positive", s)
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-10, 0.001, 0.1, 0.3, 0.5, 0.7, 0.9, 0.975, 1 - 1e-10} {
		z := NormalQuantile(p)
		if got := NormalCDF(z); math.Abs(got-p) > 1e-10 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

func TestNormalQuantilePaperThreshold(t *testing.T) {
	// Section 4.4: θ = 10% upper tail ⇒ z ≈ 1.28 by table lookup.
	z := NormalQuantile(0.9)
	if math.Abs(z-1.2815515655446004) > 1e-9 {
		t.Errorf("Quantile(0.9) = %v, want 1.28155…", z)
	}
}

func TestNormalQuantileEdges(t *testing.T) {
	if !math.IsInf(NormalQuantile(0), -1) {
		t.Error("Quantile(0) should be -Inf")
	}
	if !math.IsInf(NormalQuantile(1), 1) {
		t.Error("Quantile(1) should be +Inf")
	}
	if !math.IsNaN(NormalQuantile(-0.1)) || !math.IsNaN(NormalQuantile(1.1)) {
		t.Error("out-of-range p should give NaN")
	}
}

func TestLogBinomialCoeff(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{5, 2, math.Log(10)},
		{10, 0, 0},
		{10, 10, 0},
		{20, 10, math.Log(184756)},
	}
	for _, c := range cases {
		if got := LogBinomialCoeff(c.n, c.k); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("LogBinomialCoeff(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
	if !math.IsInf(LogBinomialCoeff(5, 6), -1) {
		t.Error("C(5,6) should be log(0) = -Inf")
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{{10, 0.5}, {20, 0.7}, {100, 0.03}} {
		sum := 0.0
		for k := 0; k <= tc.n; k++ {
			sum += BinomialPMF(tc.n, k, tc.p)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("PMF(n=%d,p=%v) sums to %v", tc.n, tc.p, sum)
		}
	}
}

func TestBinomialPMFDegenerate(t *testing.T) {
	if got := BinomialPMF(5, 0, 0); got != 1 {
		t.Errorf("PMF(5,0,p=0) = %v, want 1", got)
	}
	if got := BinomialPMF(5, 5, 1); got != 1 {
		t.Errorf("PMF(5,5,p=1) = %v, want 1", got)
	}
	if got := BinomialPMF(5, 3, 0); got != 0 {
		t.Errorf("PMF(5,3,p=0) = %v, want 0", got)
	}
}

func TestBinomialTailKnown(t *testing.T) {
	// P[X >= 15] for X~B(20, 0.7): the paper's Table A2 scenario where the
	// attacker reaches a/e = 1200/60 = 20 marked tuples with flip rate 0.7.
	got := BinomialTail(20, 15, 0.7)
	// Exact value computed independently: Σ_{15}^{20} C(20,i) 0.7^i 0.3^{20-i}.
	want := 0.41637
	if math.Abs(got-want) > 5e-5 {
		t.Errorf("BinomialTail(20,15,0.7) = %v, want ~%v", got, want)
	}
}

func TestBinomialTailEdges(t *testing.T) {
	if got := BinomialTail(10, 0, 0.3); got != 1 {
		t.Errorf("Tail k=0 = %v, want 1", got)
	}
	if got := BinomialTail(10, 11, 0.3); got != 0 {
		t.Errorf("Tail k>n = %v, want 0", got)
	}
	if got := BinomialTail(10, -5, 0.3); got != 1 {
		t.Errorf("Tail negative k = %v, want 1", got)
	}
}

// Property: the tail is monotone non-increasing in k.
func TestBinomialTailMonotone(t *testing.T) {
	f := func(n8 uint8, pRaw uint16) bool {
		n := int(n8%60) + 1
		p := float64(pRaw) / 65535
		prev := 1.0
		for k := 0; k <= n+1; k++ {
			cur := BinomialTail(n, k, p)
			if cur > prev+1e-12 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// The normal approximation used in the paper's equation (2) should agree
// with the exact tail to a few percent when the CLT condition holds.
func TestNormalApproximationAgreesWithExact(t *testing.T) {
	n, p, r := 100, 0.7, 75
	if !CLTApplies(n, p) {
		t.Fatal("CLT should apply")
	}
	exact := BinomialTail(n, r, p)
	z := (float64(r) - BinomialMean(n, p)) / BinomialStdDev(n, p)
	approx := NormalSurvival(z)
	if math.Abs(exact-approx) > 0.05 {
		t.Errorf("exact %v vs normal approx %v differ too much", exact, approx)
	}
}

func TestCLTApplies(t *testing.T) {
	if CLTApplies(10, 0.1) {
		t.Error("n·p = 1 should fail the paper's condition")
	}
	if !CLTApplies(20, 0.7) {
		t.Error("n·p = 14, n(1-p) = 6 should pass")
	}
}

// Monte-Carlo agreement between Source.NormFloat64 and NormalCDF.
func TestNormalSamplerMatchesCDF(t *testing.T) {
	s := NewSource("mc-normal")
	const n = 40000
	below := 0
	for i := 0; i < n; i++ {
		if s.NormFloat64() < 1.0 {
			below++
		}
	}
	got := float64(below) / n
	want := NormalCDF(1.0)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("empirical P[Z<1] = %v, want %v", got, want)
	}
}

// NormFloat64 returns a standard-normal variate (Box–Muller; the polar
// variant avoids trig in the common path).
func (s *Source) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		r2 := u*u + v*v
		if r2 > 0 && r2 < 1 {
			return u * math.Sqrt(-2*math.Log(r2)/r2)
		}
	}
}

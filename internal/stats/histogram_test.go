package stats

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := HistogramOfCounts(map[string]int{})
	h.Add("chicago")
	h.Add("chicago")
	h.Add("boston")
	if h.Total() != 3 || h.Distinct() != 2 {
		t.Fatalf("total=%d distinct=%d, want 3/2", h.Total(), h.Distinct())
	}
	if h.Count("chicago") != 2 || h.Count("boston") != 1 || h.Count("nyc") != 0 {
		t.Fatal("wrong counts")
	}
	if f := h.Freq("chicago"); math.Abs(f-2.0/3.0) > 1e-12 {
		t.Fatalf("Freq(chicago) = %v", f)
	}
}

func TestHistogramEmptyFreq(t *testing.T) {
	h := HistogramOfCounts(map[string]int{})
	if h.Freq("x") != 0 {
		t.Fatal("empty histogram should report 0 frequency")
	}
}

func TestHistogramAddNRemove(t *testing.T) {
	h := HistogramOfCounts(map[string]int{})
	h.AddN("a", 5)
	h.AddN("a", -2)
	if h.Count("a") != 3 || h.Total() != 3 {
		t.Fatalf("count=%d total=%d after partial removal", h.Count("a"), h.Total())
	}
	h.AddN("a", -3)
	if h.Count("a") != 0 || h.Distinct() != 0 || h.Total() != 0 {
		t.Fatal("full removal should delete the label")
	}
}

func TestHistogramClampNegative(t *testing.T) {
	h := HistogramOfCounts(map[string]int{})
	h.AddN("a", 2)
	h.AddN("a", -10) // over-removal clamps at zero
	if h.Count("a") != 0 || h.Total() != 0 {
		t.Fatalf("clamp failed: count=%d total=%d", h.Count("a"), h.Total())
	}
}

func TestHistogramLabelsSorted(t *testing.T) {
	h := HistogramOfCounts(map[string]int{})
	for _, l := range []string{"zebra", "apple", "mango"} {
		h.Add(l)
	}
	want := []string{"apple", "mango", "zebra"}
	if got := h.Labels(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Labels() = %v, want %v", got, want)
	}
}

func TestFreqVectorAligned(t *testing.T) {
	h := HistogramOfCounts(map[string]int{})
	h.AddN("b", 3)
	h.AddN("a", 1)
	labels, freqs := h.FreqVector()
	if !reflect.DeepEqual(labels, []string{"a", "b"}) {
		t.Fatalf("labels %v", labels)
	}
	if math.Abs(freqs[0]-0.25) > 1e-12 || math.Abs(freqs[1]-0.75) > 1e-12 {
		t.Fatalf("freqs %v", freqs)
	}
}

func TestL1DistanceSelfZero(t *testing.T) {
	h := HistogramOfCounts(map[string]int{})
	h.AddN("a", 3)
	h.AddN("b", 7)
	if d := h.L1Distance(h); d != 0 {
		t.Fatalf("self distance %v", d)
	}
}

func TestL1DistanceDisjoint(t *testing.T) {
	a, b := HistogramOfCounts(map[string]int{}), HistogramOfCounts(map[string]int{})
	a.AddN("x", 5)
	b.AddN("y", 5)
	if d := a.L1Distance(b); math.Abs(d-2) > 1e-12 {
		t.Fatalf("disjoint distance %v, want 2", d)
	}
}

func TestL1DistanceSymmetric(t *testing.T) {
	f := func(counts [6]uint8) bool {
		a, b := HistogramOfCounts(map[string]int{}), HistogramOfCounts(map[string]int{})
		labels := []string{"p", "q", "r"}
		for i, l := range labels {
			a.AddN(l, int(counts[i]))
			b.AddN(l, int(counts[i+3]))
		}
		if a.Total() == 0 || b.Total() == 0 {
			return true
		}
		return math.Abs(a.L1Distance(b)-b.L1Distance(a)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramClone(t *testing.T) {
	h := HistogramOfCounts(map[string]int{})
	h.AddN("a", 2)
	c := h.Clone()
	c.Add("a")
	c.Add("b")
	if h.Count("a") != 2 || h.Count("b") != 0 {
		t.Fatal("clone mutation leaked into original")
	}
	if c.Count("a") != 3 || c.Total() != 4 {
		t.Fatal("clone did not copy state")
	}
}

func TestHistogramOfCountsMatchesAdd(t *testing.T) {
	want := HistogramOfCounts(map[string]int{})
	for _, l := range []string{"a", "b", "a", "c", "a"} {
		want.Add(l)
	}
	got := HistogramOfCounts(map[string]int{"a": 3, "b": 1, "c": 1, "gone": 0, "neg": -2})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("HistogramOfCounts = %+v, want %+v", got, want)
	}
	if empty := HistogramOfCounts(map[string]int{}); !reflect.DeepEqual(empty, HistogramOfCounts(map[string]int{})) {
		t.Fatalf("empty HistogramOfCounts = %+v", empty)
	}
}

// Total returns the cached number of recorded occurrences, which Freq
// divides by.
func (h *Histogram) Total() int { return h.total }

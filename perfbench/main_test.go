package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
)

// smokeScale shrinks every input so a smoke run takes about a second.
const smokeScale = 0.2

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkJSON reads the metric declarations of the repository's
// BENCHMARK.json.
func benchmarkJSON(t *testing.T) (workloads []string, endToEnd, perLayer []declared) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	return workloads, b.EndToEnd, b.PerLayer
}

// checkMetrics demands exactly the declared metric names, with their units.
func checkMetrics(t *testing.T, got map[string]metric, want []declared) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, d := range want {
		m, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s declared but not printed", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s printed in %q, declared in %q", d.Name, m.Unit, d.Unit)
		}
	}
}

func smoke(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	res, err := run(context.Background(), config{
		workload: workload,
		seed:     7,
		seconds:  0.5,
		trace:    trace,
		scale:    smokeScale,
		outDir:   t.TempDir(),
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// TestWorkloadsSmoke runs every workload of BENCHMARK.json at a tiny
// scale and checks the printed end-to-end metrics against it.
func TestWorkloadsSmoke(t *testing.T) {
	names, endToEnd, _ := benchmarkJSON(t)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json has workloads %v, the benchmark %v", names, workloads)
	}
	for _, w := range names {
		t.Run(w, func(t *testing.T) {
			checkMetrics(t, smoke(t, w, false).Metrics, endToEnd)
		})
	}
}

// TestTracedSmoke checks that a traced run prints every per-layer metric
// of BENCHMARK.json, both from a closed-loop and from the open-loop
// workload.
func TestTracedSmoke(t *testing.T) {
	_, _, perLayer := benchmarkJSON(t)
	for _, w := range []string{wCatalog, wService} {
		t.Run(w, func(t *testing.T) {
			checkMetrics(t, smoke(t, w, true).Metrics, perLayer)
		})
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, pct, n := tail(xs)
	if v != 90 || pct != 90 || n != 100 {
		t.Fatalf("tail = %v at p%v of %d, want 90 at p90 of 100", v, pct, n)
	}
	if v, pct, _ := tail(xs[:5]); v != 5 || pct != 100 {
		t.Fatalf("short tail = %v at p%v, want the maximum at p100", v, pct)
	}
}

func TestCovered(t *testing.T) {
	spans := []span{{Start: 0, End: 10}, {Start: 5, End: 15}, {Start: 20, End: 30}}
	if got := covered(spans, 0, 25); got != 20 {
		t.Fatalf("covered = %v, want 20", got)
	}
}

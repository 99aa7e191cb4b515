// Benchmark harness: one benchmark per evaluation artifact of the paper
// (Figures 4-7, the Section 4.4 "Table A" worked examples) plus the
// ablation studies called out in DESIGN.md and codec micro-benchmarks.
//
// Figure benches report their headline values through b.ReportMetric so
// `go test -bench=. -benchmem` doubles as a quick shape check; the full
// series are regenerated by `go run ./cmd/wmexperiments`.
package repro_test

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/attacks"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/ecc"
	"repro/internal/experiments"
	"repro/internal/keyhash"
	"repro/internal/mark"
	"repro/internal/multimark"
	"repro/internal/pipeline"
	"repro/internal/relation"
	"repro/internal/stats"
)

// benchConfig is the scaled-down experiment configuration used by the
// figure benches (full scale via cmd/wmexperiments -scale paper).
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.N = 8000
	cfg.CatalogSize = 400
	cfg.Passes = 3
	cfg.AttackSizes = []float64{0.2, 0.5, 0.8}
	cfg.ESweep = []uint64{25, 75, 150}
	cfg.LossSizes = []float64{0.2, 0.5, 0.8}
	return cfg
}

func lastValue(t *experiments.Table, col string) float64 {
	j := slices.Index(t.Columns, col)
	if j < 0 || len(t.Rows) == 0 {
		return -1
	}
	return t.Rows[len(t.Rows)-1][j]
}

// BenchmarkFigure4AlterationResilience regenerates Figure 4: watermark
// alteration vs. A3 attack size for e ∈ {65, 35}.
func BenchmarkFigure4AlterationResilience(b *testing.B) {
	cfg := benchConfig()
	var tab *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.Figure4(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastValue(tab, "mark_alteration_pct_e65"), "altpct-80attack-e65")
	b.ReportMetric(lastValue(tab, "mark_alteration_pct_e35"), "altpct-80attack-e35")
}

// BenchmarkFigure5BandwidthTradeoff regenerates Figure 5: watermark
// alteration vs. e for attack sizes 55% and 20%.
func BenchmarkFigure5BandwidthTradeoff(b *testing.B) {
	cfg := benchConfig()
	var tab *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.Figure5(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastValue(tab, "mark_alteration_pct_attack55"), "altpct-e150-attack55")
	b.ReportMetric(lastValue(tab, "mark_alteration_pct_attack20"), "altpct-e150-attack20")
}

// BenchmarkFigure6Surface regenerates the Figure 6 alteration surface.
func BenchmarkFigure6Surface(b *testing.B) {
	cfg := benchConfig()
	var tab *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.Figure6(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tab.Rows)), "grid-points")
	b.ReportMetric(lastValue(tab, "mark_alteration_pct"), "altpct-corner")
}

// BenchmarkFigure7DataLoss regenerates Figure 7: watermark alteration vs.
// A1 data loss — the paper's headline (80% loss, ~25% alteration).
func BenchmarkFigure7DataLoss(b *testing.B) {
	cfg := benchConfig()
	var tab *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.Figure7(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastValue(tab, "mark_alteration_pct_paper_literal"), "altpct-80loss-literal")
	b.ReportMetric(lastValue(tab, "mark_alteration_pct_erasure_aware"), "altpct-80loss-aware")
}

// BenchmarkTableA1FalsePositive evaluates the false-positive closed forms
// of Section 4.4 (paper: (1/2)^100 ≈ 7.8e-31 at N=6000, e=60).
func BenchmarkTableA1FalsePositive(b *testing.B) {
	var fp float64
	for i := 0; i < b.N; i++ {
		fp = analysis.FalsePositiveProbFullBandwidth(6000, 60)
	}
	b.ReportMetric(-fp, "neg-prob") // avoid constant-folding; value ≈ -7.9e-31
}

// BenchmarkTableA2AttackSuccess evaluates P(r,a) three ways for the
// paper's r=15, a=1200, e=60, p=0.7 example (paper: ≈ 31.6%).
func BenchmarkTableA2AttackSuccess(b *testing.B) {
	m := analysis.AttackModel{N: 6000, E: 60, A: 1200, P: 0.7, R: 15}
	src := stats.NewSource("bench-tablea2")
	var normal, exact, sim float64
	for i := 0; i < b.N; i++ {
		var err error
		normal, _, err = analysis.AttackSuccessNormal(m)
		if err != nil {
			b.Fatal(err)
		}
		exact, err = analysis.AttackSuccessExact(m)
		if err != nil {
			b.Fatal(err)
		}
		sim, err = analysis.SimulateAttackSuccess(m, 5000, src)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(normal*100, "normal-pct")
	b.ReportMetric(exact*100, "exact-pct")
	b.ReportMetric(sim*100, "sim-pct")
}

// BenchmarkTableBBaselineComparison profiles the categorical scheme
// against the Kiernan-Agrawal LSB baseline (paper reference [6]) through
// the Power metrics framework (reference [11]).
func BenchmarkTableBBaselineComparison(b *testing.B) {
	cfg := benchConfig()
	cfg.Passes = 2
	var tab *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.BaselineComparison(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Row 3 = KA on the sparse catalog: the domain-violation percentage
	// that motivates the whole paper.
	b.ReportMetric(tab.Rows[3][3], "ka-sparse-violation-pct")
	b.ReportMetric(tab.Rows[0][3], "categorical-violation-pct")
}

// BenchmarkTableA3MinimumE solves the minimum-e bound of Section 4.4
// (paper scenario: a=600, θ=10%, r=15, p=0.7).
func BenchmarkTableA3MinimumE(b *testing.B) {
	var e uint64
	for i := 0; i < b.N; i++ {
		var err error
		e, err = analysis.MinimumE(600, 0.7, 0.10, 15)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(e), "e-star")
	b.ReportMetric(analysis.AlterationBudget(6000, e)*100, "alter-budget-pct")
}

// BenchmarkAblationVoteAggregation compares majority vs last-write-wins
// detection aggregation (DESIGN.md clarification 3).
func BenchmarkAblationVoteAggregation(b *testing.B) {
	cfg := benchConfig()
	cfg.AttackSizes = []float64{0.5}
	var tab *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.AblationVoteAggregation(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tab.Rows[0][1], "majority-altpct")
	b.ReportMetric(tab.Rows[0][2], "lastwrite-altpct")
}

// BenchmarkAblationECC compares the three registered codes under a 50%
// alteration attack.
func BenchmarkAblationECC(b *testing.B) {
	cfg := benchConfig()
	cfg.AttackSizes = []float64{0.5}
	var tab *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.AblationECC(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tab.Rows[0][1], "interleaved-altpct")
	b.ReportMetric(tab.Rows[0][2], "blocked-altpct")
	b.ReportMetric(tab.Rows[0][3], "identity-altpct")
}

// BenchmarkAblationEmbeddingMap compares blind k2 position selection
// against the Figure 1(b) embedding map under 50% data loss.
func BenchmarkAblationEmbeddingMap(b *testing.B) {
	cfg := benchConfig()
	cfg.LossSizes = []float64{0.5}
	var tab *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.AblationEmbeddingMap(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tab.Rows[0][1], "blind-altpct")
	b.ReportMetric(tab.Rows[0][2], "map-altpct")
}

// BenchmarkAblationMultiMark contrasts single-pair against full-closure
// embedding under the A5 vertical partition that drops the primary key.
func BenchmarkAblationMultiMark(b *testing.B) {
	r0, cities, airs, err := datagen.Airline(datagen.AirlineConfig{
		N: 12000, Cities: 1500, Airlines: 20, Seed: "bench-multi",
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := multimark.Config{
		Secret: "bench-secret",
		E:      25,
		Domains: map[string]*relation.Domain{
			"departure_city": cities,
			"airline":        airs,
		},
	}
	wm := ecc.MustParseBits("101101")
	var singleMatch, closureMatch float64
	for i := 0; i < b.N; i++ {
		for _, inter := range []bool{false, true} {
			r := r0.Clone()
			plan, err := multimark.BuildPlan(r, cfg, multimark.PlanOptions{IncludeInterAttribute: inter})
			if err != nil {
				b.Fatal(err)
			}
			rec, _, err := multimark.EmbedAll(r, wm, plan, cfg)
			if err != nil {
				b.Fatal(err)
			}
			// A5: strip the primary key, keep row-level association.
			stripped := relation.New(relation.MustSchema([]relation.Attribute{
				{Name: "rowid", Type: relation.TypeInt},
				{Name: "departure_city", Type: relation.TypeString, Categorical: true},
				{Name: "airline", Type: relation.TypeString, Categorical: true},
			}, "rowid"))
			for j := 0; j < r.Len(); j++ {
				city, _ := r.Value(j, "departure_city")
				air, _ := r.Value(j, "airline")
				stripped.MustAppend(relation.Tuple{fmt.Sprintf("%d", j), city, air})
			}
			comb, err := multimark.DetectAll(stripped, rec, cfg)
			match := 0.0
			if err == nil {
				match = (1 - ecc.AlterationRate(wm, comb.WM)) * 100
			}
			if inter {
				closureMatch = match
			} else {
				singleMatch = match
			}
		}
	}
	b.ReportMetric(singleMatch, "single-match-pct")
	b.ReportMetric(closureMatch, "closure-match-pct")
}

// BenchmarkEmbedThroughput measures raw embedding speed on the ItemScan
// stand-in (tuples/op in b.N accounting; see ns/op for per-relation cost).
func BenchmarkEmbedThroughput(b *testing.B) {
	r0, dom, err := datagen.ItemScan(datagen.ItemScanConfig{
		N: 20000, CatalogSize: 1000, ZipfS: 1.0, Seed: "bench-embed",
	})
	if err != nil {
		b.Fatal(err)
	}
	wm := ecc.MustParseBits("1011001110")
	opts := mark.Options{
		Attr: "Item_Nbr", K1: keyhash.NewKey("b1"), K2: keyhash.NewKey("b2"),
		E: 65, Domain: dom,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := r0.Clone()
		b.StartTimer()
		if _, err := mark.Embed(r, wm, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r0.Len()), "tuples")
}

// BenchmarkDetectThroughput measures raw blind-detection speed.
func BenchmarkDetectThroughput(b *testing.B) {
	r, dom, err := datagen.ItemScan(datagen.ItemScanConfig{
		N: 20000, CatalogSize: 1000, ZipfS: 1.0, Seed: "bench-detect",
	})
	if err != nil {
		b.Fatal(err)
	}
	wm := ecc.MustParseBits("1011001110")
	opts := mark.Options{
		Attr: "Item_Nbr", K1: keyhash.NewKey("b1"), K2: keyhash.NewKey("b2"),
		E: 65, Domain: dom,
	}
	if _, err := mark.Embed(r, wm, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mark.Detect(r, len(wm), opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.Len()), "tuples")
}

// BenchmarkAttackSuite measures the attack implementations themselves.
func BenchmarkAttackSuite(b *testing.B) {
	r, dom, err := datagen.ItemScan(datagen.ItemScanConfig{
		N: 20000, CatalogSize: 1000, ZipfS: 1.0, Seed: "bench-attack",
	})
	if err != nil {
		b.Fatal(err)
	}
	src := stats.NewSource("bench-attack-src")
	b.Run("A1-subset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := attacks.HorizontalSubset(r, 0.5, src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("A2-addition", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := attacks.SubsetAddition(r, 0.2, src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("A3-alteration", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := attacks.SubsetAlteration(r, "Item_Nbr", 0.3, dom, src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("A4-resort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			attacks.Resort(r, src)
		}
	})
	b.Run("A6-remap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := attacks.BijectiveRemap(r, "Item_Nbr", src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Pipeline benchmarks: the chunked worker-pool engine of internal/pipeline
// vs. the sequential path, over a 100k-tuple generated relation. The
// worker sweep {1, 4, NumCPU} gives later perf PRs a scaling trajectory;
// tuples/s is the headline metric.

const pipelineBenchN = 100000

func pipelineBenchData(b *testing.B) (*relation.Relation, *relation.Domain) {
	b.Helper()
	r, dom, err := datagen.ItemScan(datagen.ItemScanConfig{
		N: pipelineBenchN, CatalogSize: 1000, ZipfS: 1.0, Seed: "bench-pipeline",
	})
	if err != nil {
		b.Fatal(err)
	}
	return r, dom
}

func pipelineBenchOptions(dom *relation.Domain) mark.Options {
	return mark.Options{
		Attr: "Item_Nbr", K1: keyhash.NewKey("b1"), K2: keyhash.NewKey("b2"),
		E: 65, Domain: dom,
	}
}

func pipelineWorkerSweep() []int {
	sweep := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		sweep = append(sweep, n)
	}
	return sweep
}

// BenchmarkPipelineEmbed: chunked parallel embedding at 1, 4 and NumCPU
// workers. The 1-worker run is the sequential mark.Embed baseline (the
// pipeline falls back to it), so sub-benchmark ratios are the speedup.
func BenchmarkPipelineEmbed(b *testing.B) {
	r0, dom := pipelineBenchData(b)
	wm := ecc.MustParseBits("1011001110")
	opts := pipelineBenchOptions(dom)
	for _, workers := range pipelineWorkerSweep() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var elapsed time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				r := r0.Clone()
				b.StartTimer()
				start := time.Now()
				if _, err := pipeline.Embed(context.Background(), r, wm, opts, pipeline.Config{Workers: workers}); err != nil {
					b.Fatal(err)
				}
				elapsed += time.Since(start)
			}
			b.ReportMetric(float64(pipelineBenchN)*float64(b.N)/elapsed.Seconds(), "tuples/s")
		})
	}
}

// BenchmarkPipelineDetect: chunked parallel detection over the same
// relation and worker sweep.
func BenchmarkPipelineDetect(b *testing.B) {
	r, dom := pipelineBenchData(b)
	wm := ecc.MustParseBits("1011001110")
	opts := pipelineBenchOptions(dom)
	if _, err := mark.Embed(r, wm, opts); err != nil {
		b.Fatal(err)
	}
	for _, workers := range pipelineWorkerSweep() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				rep, err := pipeline.Detect(context.Background(), r, len(wm), opts, pipeline.Config{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if rep.WM.String() != wm.String() {
					b.Fatalf("detection lost the watermark: %s", rep.WM)
				}
			}
			b.ReportMetric(float64(pipelineBenchN)*float64(b.N)/time.Since(start).Seconds(), "tuples/s")
		})
	}
}

// BenchmarkPipelineStreamDetect: streaming detection (one stream
// scanner through pipeline.ScanMany) over a CSV stream of the same
// relation — the no-materialization path.
func BenchmarkPipelineStreamDetect(b *testing.B) {
	r, dom := pipelineBenchData(b)
	wm := ecc.MustParseBits("1011001110")
	opts := pipelineBenchOptions(dom)
	st, err := mark.Embed(r, wm, opts)
	if err != nil {
		b.Fatal(err)
	}
	var csvData strings.Builder
	if err := relation.WriteCSV(&csvData, r); err != nil {
		b.Fatal(err)
	}
	opts.BandwidthOverride = st.Bandwidth
	sc, err := mark.NewStreamScanner(r.Schema(), len(wm), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := relation.NewCSVBlockReader(strings.NewReader(csvData.String()), r.Schema())
		if err != nil {
			b.Fatal(err)
		}
		tallies, err := pipeline.ScanMany(context.Background(), src, []*mark.Scanner{sc}, pipeline.Config{})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := sc.Report(tallies[0])
		if err != nil {
			b.Fatal(err)
		}
		if rep.WM.String() != wm.String() {
			b.Fatalf("stream detection lost the watermark: %s", rep.WM)
		}
	}
	b.ReportMetric(float64(pipelineBenchN), "tuples")
}

// ---------------------------------------------------------------------------
// Batch verification: one streaming scan fanned across K prepared
// scanners (core.VerifyBatch) vs the naive loop of K full passes. The
// suspect is ingested from CSV exactly as the wmserver batch endpoint
// receives it; "one-scan" pays the parse once and the per-certificate
// keyed-hash votes ride the worker pool behind the reader, so its cost
// grows far slower than the naive loop's K× re-ingestion.

func BenchmarkBatchVerify(b *testing.B) {
	const maxCerts = 32
	r, dom := pipelineBenchData(b)
	rec, _, err := core.Watermark(r, core.Spec{
		Secret:    "batch-bench-owner-0",
		Attribute: "Item_Nbr",
		WM:        "1011001110",
		E:         65,
		Domain:    dom,
	})
	if err != nil {
		b.Fatal(err)
	}
	var csvData strings.Builder
	if err := relation.WriteCSV(&csvData, r); err != nil {
		b.Fatal(err)
	}
	suspect := csvData.String()
	// Certificate 0 marked this dataset; the rest of the catalog belongs
	// to other owners (distinct secrets, same domain and bandwidth).
	records := make([]*core.Record, maxCerts)
	records[0] = rec
	for i := 1; i < maxCerts; i++ {
		other := *rec
		other.Secret = fmt.Sprintf("batch-bench-owner-%d", i)
		records[i] = &other
	}
	cache := core.NewScannerCache(maxCerts)

	scanOnce := func(b *testing.B, recs []*core.Record) []core.BatchReport {
		b.Helper()
		// Zero-copy ingestion: the scan engine recognizes the reader's
		// BlockReader side and feeds pooled columnar blocks to the kernels.
		src, err := relation.NewCSVBlockReader(strings.NewReader(suspect), r.Schema())
		if err != nil {
			b.Fatal(err)
		}
		outs, err := core.VerifyBatch(context.Background(), recs, src, core.BatchOptions{
			Workers: -1, Cache: cache,
		})
		if err != nil {
			b.Fatal(err)
		}
		return outs
	}

	for _, k := range []int{1, 8, maxCerts} {
		b.Run(fmt.Sprintf("certs=%d/one-scan", k), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				outs := scanOnce(b, records[:k])
				if outs[0].Err != nil || outs[0].Report.Match != 1 {
					b.Fatalf("owner certificate lost: %+v", outs[0])
				}
			}
			b.ReportMetric(float64(pipelineBenchN)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
			b.ReportMetric(float64(k)*float64(pipelineBenchN)*float64(b.N)/b.Elapsed().Seconds(), "verifies-tuples/s")
		})
	}
	b.Run(fmt.Sprintf("certs=%d/naive-loop", maxCerts), func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, rec := range records {
				outs := scanOnce(b, []*core.Record{rec})
				if outs[0].Err != nil {
					b.Fatal(outs[0].Err)
				}
			}
		}
		b.ReportMetric(float64(maxCerts)*float64(pipelineBenchN)*float64(b.N)/b.Elapsed().Seconds(), "verifies-tuples/s")
	})
}

package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// tinyConfig keeps test runtime low while preserving every figure's shape.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.N = 6000
	cfg.CatalogSize = 300
	cfg.Passes = 6
	cfg.AttackSizes = []float64{0.2, 0.5, 0.8}
	cfg.ESweep = []uint64{25, 75, 150}
	cfg.LossSizes = []float64{0.2, 0.5, 0.8}
	return cfg
}

func TestFigure4ShapeMatchesPaper(t *testing.T) {
	tab, err := Figure4(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows %d, want 3", len(tab.Rows))
	}
	e65, err := tab.Column("mark_alteration_pct_e65")
	if err != nil {
		t.Fatal(err)
	}
	e35, err := tab.Column("mark_alteration_pct_e35")
	if err != nil {
		t.Fatal(err)
	}
	// Shape 1: graceful degradation — larger attacks hurt at least as much.
	if e65[0] > e65[2]+5 {
		t.Errorf("e=65 not degrading with attack size: %v", e65)
	}
	// Shape 2: smaller e (more bandwidth) is at least as resilient at the
	// heavy end. The margin reflects the small-pass noise floor of the
	// scaled-down config (each series averages Passes × WMBits bits).
	if e35[2] > e65[2]+10 {
		t.Errorf("e=35 (%v) should not be clearly worse than e=65 (%v)", e35[2], e65[2])
	}
	// Shape 3: a 20% attack is largely absorbed by the ECC.
	if e35[0] > 20 {
		t.Errorf("20%% attack at e=35 caused %v%% mark alteration", e35[0])
	}
}

func TestFigure5ShapeMatchesPaper(t *testing.T) {
	tab, err := Figure5(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := tab.Column("mark_alteration_pct_attack55")
	if err != nil {
		t.Fatal(err)
	}
	light, err := tab.Column("mark_alteration_pct_attack20")
	if err != nil {
		t.Fatal(err)
	}
	// Shape 1: vulnerability grows with e (end ≥ start, with slack for the
	// small-pass noise floor).
	if heavy[len(heavy)-1]+5 < heavy[0] {
		t.Errorf("55%% attack alteration not increasing with e: %v", heavy)
	}
	// Shape 2: the heavier attack dominates overall.
	sumH, sumL := 0.0, 0.0
	for i := range heavy {
		sumH += heavy[i]
		sumL += light[i]
	}
	if sumH < sumL {
		t.Errorf("55%% attack (%v) should dominate 20%% attack (%v)", sumH, sumL)
	}
}

func TestFigure6SurfaceTilt(t *testing.T) {
	tab, err := Figure6(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Corner comparison: (small attack, small e) must be better than
	// (large attack, large e) — the paper's lower-left to upper-right tilt.
	var best, worst float64 = -1, -1
	for _, row := range tab.Rows {
		attack, e, v := row[0], row[1], row[2]
		if attack == 20 && e == 25 {
			best = v
		}
		if attack == 80 && e == 150 {
			worst = v
		}
	}
	if best < 0 || worst < 0 {
		t.Fatal("surface corners missing")
	}
	if best >= worst {
		t.Errorf("surface tilt inverted: corner(20,25)=%v vs corner(80,150)=%v", best, worst)
	}
}

func TestFigure7DataLossHeadline(t *testing.T) {
	tab, err := Figure7(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	literal, err := tab.Column("mark_alteration_pct_paper_literal")
	if err != nil {
		t.Fatal(err)
	}
	aware, err := tab.Column("mark_alteration_pct_erasure_aware")
	if err != nil {
		t.Fatal(err)
	}
	// Paper-literal decoding: visible degradation that grows with loss —
	// the mechanism behind the paper's near-linear Figure 7 curve. The
	// absolute level depends on bandwidth (replicas per bit), which the
	// tiny config deliberately starves; only the shape is asserted.
	if literal[len(literal)-1] <= literal[0] {
		t.Errorf("paper-literal decode not degrading with loss: %v", literal)
	}
	// Erasure-aware decoding dominates paper-literal at every loss level.
	for i := range aware {
		if aware[i] > literal[i]+5 {
			t.Errorf("erasure-aware (%v) worse than paper-literal (%v) at row %d",
				aware[i], literal[i], i)
		}
	}
	// The headline claim holds in the improved mode by a wide margin.
	if aware[len(aware)-1] > 25 {
		t.Errorf("erasure-aware decode lost %v%% at 80%% loss", aware[len(aware)-1])
	}
}

func TestTableAPaperNumbers(t *testing.T) {
	tab, err := TableA()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("rows %d, want 7", len(tab.Rows))
	}
	byRow := map[int][]float64{}
	for _, r := range tab.Rows {
		byRow[int(r[0])] = r
	}
	// Row 1: false positive ≈ 7.9e-31.
	if fp := byRow[1][2]; fp > 1e-30 || fp < 1e-31 {
		t.Errorf("false positive %g", fp)
	}
	// Row 2: normal approx ≈ 0.313, close to the paper's 0.316.
	if p := byRow[2][2]; p < 0.30 || p > 0.33 {
		t.Errorf("normal approx %v", p)
	}
	// Row 4: Monte-Carlo near the exact value (row 3).
	if d := byRow[4][2] - byRow[3][2]; d > 0.02 || d < -0.02 {
		t.Errorf("simulation %v vs exact %v", byRow[4][2], byRow[3][2])
	}
	// Row 5: damage estimate exactly 1%.
	if dmg := byRow[5][2]; dmg < 0.0099 || dmg > 0.0101 {
		t.Errorf("damage %v", dmg)
	}
	// Row 6/7: e* ≈ 34, budget ≈ 2.9%.
	if e := byRow[6][2]; e < 30 || e > 38 {
		t.Errorf("e* = %v", e)
	}
	if b := byRow[7][2]; b < 0.02 || b > 0.04 {
		t.Errorf("budget %v", b)
	}
	for row := range byRow {
		if TableARowLabels[row] == "" {
			t.Errorf("row %d has no label", row)
		}
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tab := NewTable("Demo", "x", "y")
	tab.AddRow(1, 2.5)
	tab.AddRow(10, 20)
	var txt bytes.Buffer
	if err := tab.Render(&txt); err != nil {
		t.Fatal(err)
	}
	out := txt.String()
	for _, want := range []string{"Demo", "x", "y", "2.5", "20"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in %q", want, out)
		}
	}
	var csvBuf bytes.Buffer
	if err := tab.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 3 || lines[0] != "x,y" {
		t.Fatalf("csv = %q", csvBuf.String())
	}
}

func TestTableColumnErrors(t *testing.T) {
	tab := NewTable("T", "a")
	if _, err := tab.Column("zzz"); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestTableAddRowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTable("T", "a", "b").AddRow(1)
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.N = 0
	if _, err := Figure4(bad); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestAblationVoteAggregation(t *testing.T) {
	cfg := tinyConfig()
	cfg.AttackSizes = []float64{0.4}
	tab, err := AblationVoteAggregation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 || len(tab.Rows[0]) != 3 {
		t.Fatalf("shape wrong: %+v", tab.Rows)
	}
	// The two aggregations only differ when several fit tuples collide on
	// one wm_data position; at N/e ≈ bandwidth the expected voters per
	// position is ~1, so they are statistically equivalent here — require
	// only that majority is not dramatically worse.
	if tab.Rows[0][1] > tab.Rows[0][2]+10 {
		t.Errorf("majority %v much worse than last-write %v", tab.Rows[0][1], tab.Rows[0][2])
	}
}

func TestAblationECC(t *testing.T) {
	cfg := tinyConfig()
	cfg.AttackSizes = []float64{0.5}
	tab, err := AblationECC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	row := tab.Rows[0]
	// Identity (no redundancy) must be clearly worse than interleaved
	// majority under a 50% alteration attack.
	if row[3] < row[1] {
		t.Errorf("identity (%v) outperformed majority (%v)?", row[3], row[1])
	}
}

func TestAblationEmbeddingMap(t *testing.T) {
	cfg := tinyConfig()
	cfg.LossSizes = []float64{0.5}
	tab, err := AblationEmbeddingMap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	row := tab.Rows[0]
	// Both variants should hold up under 50% loss; the map variant has
	// exact positions so it must not be dramatically worse.
	if row[1] > 40 || row[2] > 40 {
		t.Errorf("excessive degradation: blind %v, map %v", row[1], row[2])
	}
}

// Column returns the values of the named column.
func (t *Table) Column(name string) ([]float64, error) {
	for i, c := range t.Columns {
		if c == name {
			out := make([]float64, len(t.Rows))
			for j, row := range t.Rows {
				out[j] = row[i]
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("experiments: no column %q", name)
}

package datagen_test

import (
	"testing"

	"repro/internal/experiments"
)

// TestPaperConfigMatchesSection5: the full-scale configuration the
// experiments run (wmexperiments -scale paper) is the paper's Section 5
// dataset — 141000 item-scan tuples over a 1000-item catalog.
func TestPaperConfigMatchesSection5(t *testing.T) {
	cfg := experiments.PaperConfig()
	if cfg.N != 141000 || cfg.CatalogSize != 1000 {
		t.Fatalf("paper config N = %d, catalog = %d, want 141000 and 1000", cfg.N, cfg.CatalogSize)
	}
}

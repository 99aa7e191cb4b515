package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/mark"
	"repro/internal/pipeline"
	"repro/internal/relation"
)

// catalog_audit: one suspect ItemScan CSV checked against a catalog of
// certificates in one streaming pass per op — `wmtool verify -records`.

const (
	catalogRows   = 100_000
	catalogOwners = 8
	// catalogPerOwner certificates share each owner secret (and so each
	// key-hash lane of keyhash.BlockMemo); they differ in e and bits.
	catalogPerOwner = 4
	catalogWMBits   = 32
)

// catalogEs are the fitness parameters of an owner's certificates. The
// owner certificate (owner 0, first e) is the one that marked the suspect.
var catalogEs = [catalogPerOwner]uint64{60, 65, 70, 75}

type catalogWorkload struct {
	schema  *relation.Schema
	csv     []byte
	records []*core.Record
	rows    int
	opts    core.BatchOptions
	last    []core.BatchReport
}

func setupCatalog(seed int64, scale float64, p pins) (*catalogWorkload, error) {
	n := scaled(catalogRows, scale)
	rel, dom, err := datagen.ItemScan(datagen.ItemScanConfig{
		N: n, CatalogSize: 1000, ZipfS: 1.0, Seed: fmt.Sprintf("catalog-%d", seed),
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0xca7a))
	records := make([]*core.Record, 0, catalogOwners*catalogPerOwner)
	for o := 0; o < catalogOwners; o++ {
		secret := fmt.Sprintf("catalog-owner-%d-%d", seed, o)
		for _, e := range catalogEs {
			records = append(records, &core.Record{
				Secret:    secret,
				Attribute: "Item_Nbr",
				WM:        randomBits(rng, catalogWMBits),
				E:         e,
				Bandwidth: mark.Bandwidth(n, e),
				Domain:    dom.Values(),
			})
		}
	}
	owner, _, err := core.Watermark(rel, core.Spec{
		Secret:     records[0].Secret,
		Attribute:  "Item_Nbr",
		WM:         records[0].WM,
		E:          records[0].E,
		Domain:     dom,
		Workers:    p.ScanWorkers,
		HashKernel: p.Kernel,
	})
	if err != nil {
		return nil, fmt.Errorf("catalog: watermark: %w", err)
	}
	records[0] = owner
	var buf bytes.Buffer
	if err := relation.WriteCSV(&buf, rel); err != nil {
		return nil, err
	}
	return &catalogWorkload{
		schema:  rel.Schema(),
		csv:     buf.Bytes(),
		records: records,
		rows:    n,
		opts: core.BatchOptions{
			Workers:    p.ScanWorkers,
			Cache:      core.NewScannerCache(len(records)),
			HashKernel: p.Kernel,
			BlockSize:  p.BlockRows,
		},
	}, nil
}

func (w *catalogWorkload) rowsPerOp() int { return w.rows }
func (w *catalogWorkload) close()         {}

func (w *catalogWorkload) reader() (*relation.CSVBlockReader, error) {
	return relation.NewCSVBlockReader(bytes.NewReader(w.csv), w.schema)
}

// op is one core.VerifyBatch over the suspect. Traced, it runs the same
// three steps VerifyBatch is made of, each in its own span.
func (w *catalogWorkload) op(ctx context.Context, tr *tracer, opID int) error {
	if tr == nil {
		src, err := w.reader()
		if err != nil {
			return err
		}
		w.last, err = core.VerifyBatch(ctx, w.records, src, w.opts)
		return err
	}
	root := tr.start("op.catalog_audit", -1, opID)
	defer tr.end(root)
	s := tr.start("relation.NewCSVBlockReader", root, opID)
	src, err := w.reader()
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.start("core.PrepareBatch", root, opID)
	prep := core.PrepareBatch(w.records, src.Schema(), w.opts)
	tr.end(s)
	s = tr.start("pipeline.ScanMany", root, opID)
	tallies, err := pipeline.ScanMany(ctx, src, prep.Scanners(), w.scanConfig())
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.start("core.BatchPrep.Reports", root, opID)
	w.last = prep.Reports(tallies)
	tr.end(s)
	return nil
}

// scanConfig is the pipeline configuration core.VerifyBatch derives
// from w.opts.
func (w *catalogWorkload) scanConfig() pipeline.Config {
	return pipeline.Config{Workers: w.opts.Workers, BlockRows: w.opts.BlockSize}
}

// check is the correctness gate: the owner certificate matches exactly,
// and no other certificate reaches the "present" verdict.
func (w *catalogWorkload) check() error {
	if len(w.last) != len(w.records) {
		return fmt.Errorf("catalog: %d reports for %d certificates", len(w.last), len(w.records))
	}
	for i, r := range w.last {
		switch {
		case r.Err != nil:
			return fmt.Errorf("catalog: certificate %d: %w", i, r.Err)
		case r.Report.Primary.Tuples != w.rows:
			return fmt.Errorf("catalog: certificate %d scanned %d rows, want %d", i, r.Report.Primary.Tuples, w.rows)
		case i == 0 && r.Report.Match != 1:
			return fmt.Errorf("catalog: owner certificate match %v, want 1", r.Report.Match)
		case i != 0 && r.Report.Match >= core.PresentThreshold:
			return fmt.Errorf("catalog: certificate %d false positive, match %v", i, r.Report.Match)
		}
	}
	return nil
}

// randomBits draws an n-bit watermark string.
func randomBits(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '0' + byte(rng.IntN(2))
	}
	return string(b)
}

// scaled multiplies a row count by the input scale, keeping it positive.
func scaled(n int, scale float64) int {
	return max(int(float64(n)*scale), 1)
}

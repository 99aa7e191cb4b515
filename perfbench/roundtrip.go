package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"

	"repro/internal/attacks"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/internal/stats"
)

// owner_roundtrip: `wmtool watermark` then `wmtool verify` on the
// materialized paths. Each op marks a fresh clone of the clean relation
// and verifies a suspect that went through a subset attack and a
// bijective remap, so verification runs detect, remap recovery, detect
// again and the frequency channel.

const (
	roundtripRows = 40_000
	// A small, skewed catalog keeps the frequency ranks that remap
	// recovery matches on apart.
	roundtripCatalog = 60
	roundtripZipfS   = 1.3
	roundtripWMBits  = 16
	roundtripE       = 50
	// roundtripKeep is the fraction of rows the subset attack keeps.
	roundtripKeep = 0.9
	// Fixed floors of the correctness gate. Remap recovery by frequency
	// rank is lossy, so they sit below the worst of 400 seeds (match
	// 0.375, frequency match 0.125); a frequency match of 0 or more means
	// the channel decoded at all.
	roundtripMinMatch     = 0.25
	roundtripMinFreqMatch = 0
)

type roundtripWorkload struct {
	clean      *relation.Relation
	spec       core.Spec
	wantRecord []byte
	suspectCSV []byte
	verifyOpts core.VerifyOptions
	rows       int
	// wantReport is setup's verification of the suspect; every op must
	// reproduce it exactly.
	wantReport core.Report

	lastRecord []byte
	lastReport core.Report
}

func setupRoundtrip(seed int64, scale float64, p pins) (*roundtripWorkload, error) {
	n := scaled(roundtripRows, scale)
	clean, dom, err := datagen.ItemScan(datagen.ItemScanConfig{
		N: n, CatalogSize: roundtripCatalog, ZipfS: roundtripZipfS, Seed: fmt.Sprintf("roundtrip-%d", seed),
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x7a11))
	spec := core.Spec{
		Secret:               fmt.Sprintf("roundtrip-owner-%d", seed),
		Attribute:            "Item_Nbr",
		WM:                   randomBits(rng, roundtripWMBits),
		E:                    roundtripE,
		Domain:               dom,
		WithFrequencyChannel: true,
		Workers:              p.ScanWorkers,
		HashKernel:           p.Kernel,
		BlockSize:            p.BlockRows,
	}
	marked := clean.Clone()
	rec, _, err := core.Watermark(marked, spec)
	if err != nil {
		return nil, fmt.Errorf("roundtrip: watermark: %w", err)
	}
	want, err := rec.Save()
	if err != nil {
		return nil, err
	}
	src := stats.NewSource(fmt.Sprintf("roundtrip-attack-%d", seed))
	subset, err := attacks.HorizontalSubset(marked, roundtripKeep, src)
	if err != nil {
		return nil, err
	}
	suspect, _, err := attacks.BijectiveRemap(subset, "Item_Nbr", src)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := relation.WriteCSV(&buf, suspect); err != nil {
		return nil, err
	}
	w := &roundtripWorkload{
		clean:      clean,
		spec:       spec,
		wantRecord: want,
		suspectCSV: buf.Bytes(),
		verifyOpts: core.VerifyOptions{Workers: p.ScanWorkers, HashKernel: p.Kernel, BlockSize: p.BlockRows},
		rows:       n + suspect.Len(),
	}
	if w.wantReport, err = rec.VerifyWith(suspect, w.verifyOpts); err != nil {
		return nil, err
	}
	return w, nil
}

// rowsPerOp counts the rows marked plus the suspect rows verified.
func (w *roundtripWorkload) rowsPerOp() int { return w.rows }
func (w *roundtripWorkload) close()         {}

func (w *roundtripWorkload) readSuspect() (*relation.Relation, error) {
	return relation.ReadCSV(bytes.NewReader(w.suspectCSV), w.clean.Schema())
}

func (w *roundtripWorkload) op(_ context.Context, tr *tracer, opID int) error {
	root := tr.start("op.owner_roundtrip", -1, opID)
	defer tr.end(root)

	s := tr.start("relation.Relation.Clone", root, opID)
	rel := w.clean.Clone()
	tr.end(s)
	s = tr.start("core.Watermark", root, opID)
	rec, _, err := core.Watermark(rel, w.spec)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.start("core.Record.Save", root, opID)
	w.lastRecord, err = rec.Save()
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.start("relation.ReadCSV", root, opID)
	suspect, err := w.readSuspect()
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.start("core.Record.VerifyWith", root, opID)
	w.lastReport, err = rec.VerifyWith(suspect, w.verifyOpts)
	tr.end(s)
	return err
}

// check is the correctness gate: the certificate is byte-identical to
// setup's, the verification reproduces setup's, the remap was recovered,
// and both channels clear fixed floors.
func (w *roundtripWorkload) check() error {
	r, want := w.lastReport, w.wantReport
	switch {
	case !bytes.Equal(w.lastRecord, w.wantRecord):
		return fmt.Errorf("roundtrip: certificate differs from setup's")
	case r.Match != want.Match || r.FrequencyMatch != want.FrequencyMatch || r.Detected != want.Detected:
		return fmt.Errorf("roundtrip: verification %+v differs from setup's %+v", r, want)
	case !r.RemapRecovered:
		return fmt.Errorf("roundtrip: remap not recovered")
	case r.Match < roundtripMinMatch:
		return fmt.Errorf("roundtrip: match %v below %v", r.Match, roundtripMinMatch)
	case r.FrequencyMatch < roundtripMinFreqMatch:
		return fmt.Errorf("roundtrip: frequency match %v below %v", r.FrequencyMatch, roundtripMinFreqMatch)
	}
	return nil
}

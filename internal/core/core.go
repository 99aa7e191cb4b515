// Package core is the high-level entry point to the categorical
// watermarking system: it bundles everything an owner must do — and must
// retain — into two calls and one serializable artifact.
//
//	rec, stats, err := core.Watermark(rel, core.Spec{
//	    Secret:    "owner-passphrase",
//	    Attribute: "Item_Nbr",
//	    WM:        "1011001110",
//	    E:         65,
//	})
//	// … years later, on a suspect copy, with only the record …
//	rep, err := rec.VerifyWith(suspect, core.VerifyOptions{})
//
// The Record is the owner's watermark certificate. It contains the secret
// passphrase, the channel parameters fixed at embedding time (e, bandwidth,
// the value domain), the registered frequency profile for remap recovery,
// and the expected bits. It serialises to JSON; whoever holds it can prove
// ownership, so it is exactly as secret as the keys themselves.
//
// Underneath, core composes the paper's channels: the (K, A) association
// codec of internal/mark (Section 3.2), the frequency-domain channel of
// internal/freq (Section 4.2) as a secondary witness, and the remap
// recovery of Section 4.5 during verification.
package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"

	"repro/internal/ecc"
	"repro/internal/freq"
	"repro/internal/keyhash"
	"repro/internal/mark"
	"repro/internal/pipeline"
	"repro/internal/quality"
	"repro/internal/relation"
	"repro/internal/stats"
)

// Spec is what the owner chooses before watermarking.
type Spec struct {
	// Secret is the master passphrase; k1, k2 and the frequency-channel
	// key derive from it.
	Secret string
	// Attribute is the categorical attribute to watermark.
	Attribute string
	// KeyAttr optionally overrides the key attribute (default: the
	// relation's primary key).
	KeyAttr string
	// WM is the watermark bit string, e.g. "1011001110".
	WM string
	// E is the fitness parameter (default 60).
	E uint64
	// Domain optionally fixes the value catalog; nil derives it from the
	// data and stores it in the record.
	Domain *relation.Domain
	// WithFrequencyChannel additionally embeds the watermark into the
	// attribute's occurrence histogram, surviving extreme vertical
	// partitions (Section 4.2). Costs extra tuple moves.
	WithFrequencyChannel bool
	// MaxAlterationFraction bounds total data change; 0 means unlimited.
	// Enforced through the Section 4.1 quality assessor.
	MaxAlterationFraction float64
	// Workers selects the execution engine for the key-association
	// channel: 0 or 1 runs the sequential pass, >1 runs the chunked
	// worker pool of internal/pipeline with that many workers, and any
	// negative value means runtime.NumCPU(). Quality-gated embedding
	// (MaxAlterationFraction > 0) is order-dependent and always runs
	// sequentially.
	Workers int
	// HashKernel selects the batched keyed-hash backend of the
	// block-at-a-time engine (keyhash.KernelAuto, KernelPortable or
	// KernelMultiBuffer). The zero value picks the fastest backend this
	// CPU supports; the choice never changes a digest, a certificate or
	// a verdict — only throughput.
	HashKernel keyhash.KernelKind
	// BlockSize is the number of tuples per scan block fed through the
	// hash kernel (pipeline.Config.BlockRows). 0 or negative means
	// mark.DefaultBlockRows; results are bit-identical at every size.
	BlockSize int
	// Progress, when non-nil, observes the embedding pass: it receives
	// the tuple count of each completed block, concurrently from worker
	// goroutines. Async jobs aggregate it into their tuples-processed
	// counter.
	Progress func(tuples int)
}

// workerCount normalizes a Spec.Workers-style knob: 0 → sequential,
// negative → NumCPU.
func workerCount(w int) int {
	if w == 0 {
		return 1
	}
	if w < 0 {
		return runtime.NumCPU()
	}
	return w
}

// Stats reports what Watermark changed.
type Stats struct {
	// Mark is the key-association channel's statistics.
	Mark mark.EmbedStats
	// FrequencyMoved counts tuples moved by the frequency channel.
	FrequencyMoved int
}

// Record is the owner's watermark certificate — everything needed for
// later verification, and nothing that can be reconstructed from the data.
type Record struct {
	Secret    string   `json:"secret"`
	Attribute string   `json:"attribute"`
	KeyAttr   string   `json:"key_attr,omitempty"`
	WM        string   `json:"wm"`
	E         uint64   `json:"e"`
	Bandwidth int      `json:"bandwidth"`
	Domain    []string `json:"domain"`
	// Profile is the post-embedding frequency profile, kept for
	// Section 4.5 bijective-remap recovery.
	Profile map[string]float64 `json:"profile"`
	// HasFrequencyChannel records whether the histogram carries a copy.
	HasFrequencyChannel bool `json:"has_frequency_channel"`
}

func (s Spec) keys() (k1, k2 keyhash.Key) {
	return keyhash.NewKey(s.Secret + "|core-k1"), keyhash.NewKey(s.Secret + "|core-k2")
}

func (s Spec) freqKey() keyhash.Key {
	return keyhash.NewKey(s.Secret + "|core-freq")
}

// Watermark embeds per the spec, mutating r, and returns the certificate.
// It is WatermarkContext with a background context — embedding cannot be
// cancelled mid-pass through this entry point.
func Watermark(r *relation.Relation, s Spec) (*Record, Stats, error) {
	//wmlint:ignore ctxloop compatibility entry point documented as uncancellable; WatermarkContext is the cancellable path
	return WatermarkContext(context.Background(), r, s)
}

// WatermarkContext is Watermark under a caller-controlled context: a
// cancelled ctx stops the chunked embedding pass between chunks and
// returns ctx.Err(). This is the entry point of the async job executor
// and the HTTP handlers, where a disconnected client or a cancelled job
// must stop burning CPU. Note a cancelled embedding may have already
// altered part of r — callers discard the relation on error.
func WatermarkContext(ctx context.Context, r *relation.Relation, s Spec) (*Record, Stats, error) {
	var st Stats
	if s.Secret == "" {
		return nil, st, errors.New("core: empty secret")
	}
	wm, err := ecc.ParseBits(s.WM)
	if err != nil {
		return nil, st, err
	}
	if len(wm) == 0 {
		return nil, st, errors.New("core: empty watermark")
	}
	e := s.E
	if e == 0 {
		e = 60
	}
	dom := s.Domain
	if dom == nil {
		if dom, err = relation.DomainOf(r, s.Attribute); err != nil {
			return nil, st, err
		}
	}
	var assessor *quality.Assessor
	if s.MaxAlterationFraction > 0 {
		assessor = quality.NewAssessor(
			quality.MaxAlterationFraction(s.MaxAlterationFraction, r.Len()),
			quality.ValueDomain(s.Attribute, dom),
		)
	}
	k1, k2 := s.keys()
	opts := mark.Options{
		KeyAttr:    s.KeyAttr,
		Attr:       s.Attribute,
		K1:         k1,
		K2:         k2,
		E:          e,
		Domain:     dom,
		Assessor:   assessor,
		HashKernel: s.HashKernel,
	}
	mst, err := pipeline.Embed(ctx, r, wm, opts, pipeline.Config{
		Workers:   workerCount(s.Workers),
		BlockRows: s.BlockSize,
		Progress:  s.Progress,
	})
	if err != nil {
		return nil, st, err
	}
	st.Mark = mst

	// The certificate's profile is the marked attribute's final counts;
	// the frequency channel moves rows by code and returns them.
	var hist *stats.Histogram
	if s.WithFrequencyChannel {
		fp := freq.DefaultParams(s.freqKey())
		fp.Assessor = assessor
		fst, h, err := freq.EmbedCounts(r, s.Attribute, wm, fp)
		if err != nil {
			return nil, st, fmt.Errorf("core: frequency channel: %w", err)
		}
		st.FrequencyMoved = fst.TuplesMoved
		hist = h
	} else if hist, err = relation.HistogramOf(r, s.Attribute); err != nil {
		return nil, st, err
	}
	rec := &Record{
		Secret:              s.Secret,
		Attribute:           s.Attribute,
		KeyAttr:             s.KeyAttr,
		WM:                  wm.String(),
		E:                   e,
		Bandwidth:           mst.Bandwidth,
		Domain:              dom.Values(),
		Profile:             freq.ProfileOfHistogram(hist),
		HasFrequencyChannel: s.WithFrequencyChannel,
	}
	return rec, st, nil
}

// Verdict thresholds on Report.Match, shared by every surface (CLI,
// HTTP API) so a recalibration cannot leave them disagreeing: at least
// PresentThreshold is a positive ownership verdict, at least
// PartialThreshold a partial match (heavily attacked or partly related
// data), anything lower is no evidence.
const (
	PresentThreshold = 0.9
	PartialThreshold = 0.7
)

// Report is a verification outcome.
type Report struct {
	// Match is the fraction of watermark bits recovered through the
	// primary (key-association) channel; 1.0 is a perfect match.
	Match float64
	// Detected is the recovered bit string.
	Detected string
	// RemapRecovered is true when straight detection failed on unknown
	// values and a Section 4.5 frequency-profile inverse mapping was
	// applied first.
	RemapRecovered bool
	// FrequencyMatch is the match through the frequency channel, when the
	// record carries one and the channel decoded (−1 otherwise).
	FrequencyMatch float64
	// Primary is the raw detection report of the primary channel.
	Primary mark.DetectReport
}

// VerifyOptions parameterises VerifyWith.
type VerifyOptions struct {
	// Workers follows the Spec.Workers convention (0/1 sequential,
	// negative = NumCPU).
	Workers int
	// Cache, when non-nil, reuses prepared certificate state across
	// verifies of the same record (see ScannerCache).
	Cache *ScannerCache
	// HashKernel selects the batched keyed-hash backend (see
	// Spec.HashKernel); verdicts are identical across backends.
	HashKernel keyhash.KernelKind
	// BlockSize is the scan-block size (see Spec.BlockSize).
	BlockSize int
}

// VerifyWith blindly detects the certificate's watermark in a suspect
// relation. It tries the primary channel; if the suspect's values do not
// resolve in the recorded domain (a bijective remap, attack A6), it
// recovers an inverse mapping from the recorded frequency profile and
// re-votes the first pass's fit rows through it. The frequency channel,
// when present, is scored as a secondary witness. The suspect relation
// is never modified. o sets the worker count, an optional
// prepared-scanner cache, the hash kernel and the block size; the
// verdict is the same under every setting.
func (rec *Record) VerifyWith(suspect *relation.Relation, o VerifyOptions) (Report, error) {
	//wmlint:ignore ctxloop compatibility entry point; VerifyContext is the cancellable path
	return rec.verify(context.Background(), suspect, o)
}

// VerifyContext is VerifyWith under a caller-controlled context: a
// cancelled ctx stops the detection scan between chunks and returns
// ctx.Err(). The suspect relation is never modified either way.
func (rec *Record) VerifyContext(ctx context.Context, suspect *relation.Relation, o VerifyOptions) (Report, error) {
	return rec.verify(ctx, suspect, o)
}

// verify scans the suspect's key column once. Fitness depends on the
// key alone, so a remap changes the values of the fit tuples but never
// which tuples are fit: when the remap trigger fires, the retry re-votes
// only the first pass's fit rows (about N/e of them), with their values
// rewritten through the recovered inverse mapping, through the same
// scanner and so at the same bandwidth. The suspect's attribute
// histogram is counted at most once, and serves both remap recovery and
// the frequency channel — which scores it pushed through the mapping,
// exactly the histogram of a remapped copy.
func (rec *Record) verify(ctx context.Context, suspect *relation.Relation, o VerifyOptions) (Report, error) {
	var rep Report
	rep.FrequencyMatch = -1
	p, err := prepared(rec, o.Cache, o.HashKernel)
	if err != nil {
		return rep, err
	}
	want := p.want

	cfg := pipeline.Config{Workers: workerCount(o.Workers), BlockRows: o.BlockSize}
	det, fit, err := pipeline.DetectFit(ctx, suspect, len(want), p.opts, cfg)
	if err != nil {
		return rep, err
	}
	defer fit.Release()
	// The suspect's attribute histogram, counted on first use. The
	// attribute resolved in the detection pass, so counting cannot fail.
	var hist *stats.Histogram
	var inverse map[string]string
	// Heuristic remap trigger: most fit tuples failed to resolve.
	if det.Fit > 0 && det.UnknownValues > det.Fit/2 && len(rec.Profile) > 0 {
		if hist, err = relation.HistogramOf(suspect, rec.Attribute); err != nil {
			return rep, err
		}
		if inv, rerr := freq.RecoverMappingFrom(hist, freq.Profile(rec.Profile)); rerr == nil {
			inverse = inv
			if det2, derr := fit.Revote(ctx, inverse); derr == nil {
				det = det2
				rep.RemapRecovered = true
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return rep, err // a cancelled remap retry must not pass as a verdict
	}
	rep.Primary = det
	rep.Detected = det.WM.String()
	rep.Match = det.MatchFraction(want)

	if rec.HasFrequencyChannel {
		if hist == nil {
			if hist, err = relation.HistogramOf(suspect, rec.Attribute); err != nil {
				return rep, err
			}
		}
		if inverse != nil {
			hist = freq.MapHistogram(hist, inverse)
		}
		fp := freq.DefaultParams(Spec{Secret: rec.Secret}.freqKey())
		if frep, ferr := freq.DetectHistogram(hist, len(want), fp); ferr == nil {
			rep.FrequencyMatch = 1 - ecc.AlterationRate(want, frep.WM)
		}
	}
	return rep, nil
}

// MarshalJSON-friendly persistence helpers.

// Save serialises the record to JSON.
func (rec *Record) Save() ([]byte, error) {
	return json.MarshalIndent(rec, "", "  ")
}

// LoadRecord parses a record saved with Save.
func LoadRecord(data []byte) (*Record, error) {
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("core: parsing record: %w", err)
	}
	if rec.Secret == "" || rec.Attribute == "" || rec.WM == "" || rec.E == 0 {
		return nil, errors.New("core: record missing required fields")
	}
	return &rec, nil
}

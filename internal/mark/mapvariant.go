package mark

import (
	"errors"
	"fmt"

	"repro/internal/ecc"
	"repro/internal/keyhash"
	"repro/internal/quality"
	"repro/internal/relation"
)

// EmbeddingMap is the alternate bit-position bookkeeping of Figures 1(b)
// and 2(b): an on-the-fly mapping from key values to wm_data bit indices,
// assigned sequentially during embedding. It removes the need for the k2
// key and guarantees every wm_data bit is embedded exactly once (no
// position collisions), at the cost of no longer being fully blind — the
// map (~N/e entries) must be stored alongside the keys. The paper notes it
// uses this variant in its own implementation.
type EmbeddingMap map[string]int

// EmbedWithMap watermarks r per Figure 1(b) and returns the embedding map.
// Options.K2 is ignored. Bits are assigned to fit tuples in scan order:
// fit tuple number i carries wm_data[i].
func EmbedWithMap(r *relation.Relation, wm ecc.Bits, opts Options) (EmbeddingMap, EmbedStats, error) {
	var stats EmbedStats
	keyCol, attrCol, dom, err := opts.resolve(r, false)
	if err != nil {
		return nil, stats, err
	}
	if len(wm) == 0 {
		return nil, stats, errors.New("mark: empty watermark")
	}
	n := r.Len()
	bw := opts.bandwidth(n)
	if bw < len(wm) {
		return nil, stats, fmt.Errorf("%w: |wm|=%d, N/e=%d", ErrInsufficientBandwidth, len(wm), bw)
	}
	wmData, err := opts.code().Encode(wm, bw)
	if err != nil {
		return nil, stats, err
	}

	stats.Tuples = n
	stats.Bandwidth = bw
	em := make(EmbeddingMap, bw)
	idx := 0

	for j := 0; j < n && idx < bw; j++ {
		keyVal := r.At(j, keyCol)
		d1 := keyhash.HashString(opts.K1, keyVal)
		if !keyhash.Fit(d1, opts.E) {
			continue
		}
		stats.Fit++
		if opts.SkipRow != nil && opts.SkipRow(j) {
			stats.SkippedLedger++
			continue
		}
		if _, dup := em[keyVal]; dup {
			// Repeated key value (a relation may repeat any KeyAttr
			// value, its primary key's too): first assignment wins, as
			// re-assigning would desynchronise decode.
			continue
		}
		bit := uint64(wmData[idx])
		vIdx := keyhash.PairIndex(d1.Uint64At(1), dom.Size(), bit)
		newVal := dom.Value(vIdx)
		if r.At(j, attrCol) != newVal {
			if opts.Assessor != nil {
				if aerr := opts.Assessor.Apply(r, j, opts.Attr, newVal); aerr != nil {
					var verr *quality.ViolationError
					if errors.As(aerr, &verr) {
						stats.SkippedQuality++
						continue
					}
					return nil, stats, aerr
				}
			} else if serr := r.SetValue(j, opts.Attr, newVal); serr != nil {
				return nil, stats, serr
			}
			stats.Altered++
			if opts.OnAlter != nil {
				opts.OnAlter(j)
			}
		} else {
			stats.Unchanged++
		}
		em[keyVal] = idx
		idx++
	}
	stats.PositionsTouched = idx
	return em, stats, nil
}

// DetectWithMap recovers a wmLen-bit watermark per Figure 2(b), using the
// stored embedding map to place each fit tuple's bit exactly. Tuples
// missing from the map (e.g. added by an A2 attack and accidentally fit)
// are ignored.
func DetectWithMap(r *relation.Relation, wmLen int, em EmbeddingMap, opts Options) (DetectReport, error) {
	var rep DetectReport
	keyCol, attrCol, dom, err := opts.resolve(r, false)
	if err != nil {
		return rep, err
	}
	if wmLen <= 0 {
		return rep, errors.New("mark: non-positive watermark length")
	}
	if len(em) == 0 {
		return rep, errors.New("mark: empty embedding map")
	}
	bw := 0
	//wmlint:ignore determinism order-independent max reduction over the embedding map
	for _, idx := range em {
		if idx < 0 {
			return rep, fmt.Errorf("mark: embedding map has negative index %d", idx)
		}
		if idx+1 > bw {
			bw = idx + 1
		}
	}
	if bw < wmLen {
		return rep, fmt.Errorf("%w: |wm|=%d, map bandwidth=%d", ErrInsufficientBandwidth, wmLen, bw)
	}

	rep.Tuples = r.Len()
	rep.Bandwidth = bw
	wmData := ecc.NewErased(bw)

	for j := 0; j < r.Len(); j++ {
		keyVal := r.At(j, keyCol)
		if !keyhash.Fit(keyhash.HashString(opts.K1, keyVal), opts.E) {
			continue
		}
		rep.Fit++
		pos, ok := em[keyVal]
		if !ok {
			continue // not part of the original embedding
		}
		idx, ok := dom.Index(r.At(j, attrCol))
		if !ok {
			rep.UnknownValues++
			continue
		}
		wmData[pos] = uint8(idx & 1)
	}
	for _, b := range wmData {
		if b != ecc.Erased {
			rep.PositionsFilled++
		}
	}
	if rep.PositionsFilled > 0 {
		rep.MeanMargin = 1 // map placement is exact; every vote is unanimous
	}

	wm, err := opts.code().Decode(wmData, wmLen)
	if err != nil {
		return rep, err
	}
	rep.WM = wm
	return rep, nil
}

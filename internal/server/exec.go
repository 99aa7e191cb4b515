// The exec layer: every operation the API performs, expressed as a pure
// (context, request) -> (response, *api.Error) function with no knowledge
// of http.ResponseWriter. The synchronous HTTP handlers and the async job
// executor (jobs.go) both call these, so a watermark submitted as POST
// /v1/watermark and one submitted as a /v2 job run exactly the same code
// under exactly the same cancellation rules.
package server

import (
	"context"
	"errors"
	"net/http"
	"strings"

	"repro/internal/analysis"
	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/server/store"
)

// verdictFor maps a bit-agreement fraction onto the API verdict scale,
// at the shared core thresholds.
func verdictFor(match float64) string {
	switch {
	case match >= core.PresentThreshold:
		return api.VerdictPresent
	case match >= core.PartialThreshold:
		return api.VerdictPartial
	default:
		return api.VerdictAbsent
	}
}

// falsePositiveForDetected scores the chance of a full match of the
// detected bit string's length on unmarked data.
func falsePositiveForDetected(detected string) float64 {
	return analysis.FalsePositiveProb(len(detected))
}

// ctxErr translates a context cancellation into its api error, or nil
// when err is unrelated to cancellation.
func ctxErr(err error) *api.Error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return api.Errorf(api.CodeCancelled, "request cancelled: %v", err)
	}
	return nil
}

// scanErr classifies a failed streaming scan: a tripped body limit is
// payload_too_large (shrink and retry), a cancellation is cancelled,
// anything else is a malformed suspect.
func scanErr(err error) *api.Error {
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		return api.Errorf(api.CodePayloadTooLarge,
			"request body exceeds %d bytes", maxErr.Limit)
	}
	if aerr := ctxErr(err); aerr != nil {
		return aerr
	}
	return api.Errorf(api.CodeInvalidArgument, "suspect data: %v", err)
}

// loadStoredRecord fetches a certificate by ID as a typed api error on
// failure.
func (s *Server) loadStoredRecord(id string) (*core.Record, *api.Error) {
	rec, err := s.store.Get(id)
	if errors.Is(err, store.ErrNotFound) {
		return nil, api.Errorf(api.CodeNotFound, "%v", err)
	} else if err != nil {
		return nil, api.Errorf(api.CodeInternal, "%v", err)
	}
	return rec, nil
}

// execWatermark embeds a watermark into an inline relation, persists the
// certificate, and returns the marked data — the body of POST /watermark
// and of "watermark" jobs. progress, when non-nil, receives per-block
// tuple counts from the embedding pass (async jobs meter themselves
// through it; sync handlers pass nil).
func (s *Server) execWatermark(ctx context.Context, req api.WatermarkRequest, progress func(tuples int)) (*api.WatermarkResponse, *api.Error) {
	rel, _, err := decodeRelation(req.Schema, req.Format, req.Data)
	if err != nil {
		return nil, api.Errorf(api.CodeInvalidArgument, "relation: %v", err)
	}
	var dom *relation.Domain
	if len(req.Domain) > 0 {
		if dom, err = relation.NewDomain(req.Domain); err != nil {
			return nil, api.Errorf(api.CodeInvalidArgument, "domain: %v", err)
		}
	}
	rec, st, err := core.WatermarkContext(ctx, rel, core.Spec{
		Secret:                req.Secret,
		Attribute:             req.Attribute,
		KeyAttr:               req.KeyAttr,
		WM:                    req.WM,
		E:                     req.E,
		Domain:                dom,
		WithFrequencyChannel:  req.FrequencyChannel,
		MaxAlterationFraction: req.MaxAlterationFraction,
		Workers:               s.workersFor(req.Workers),
		Progress:              progress,
	})
	if err != nil {
		if aerr := ctxErr(err); aerr != nil {
			return nil, aerr
		}
		return nil, api.Errorf(api.CodeInvalidArgument, "watermark: %v", err)
	}
	id, err := s.store.Put(rec)
	if err != nil {
		return nil, api.Errorf(api.CodeInternal, "persisting record: %v", err)
	}
	data, err := encodeRelation(rel, req.Format)
	if err != nil {
		return nil, api.Errorf(api.CodeInternal, "encoding result: %v", err)
	}
	return &api.WatermarkResponse{
		ID:             id,
		Data:           data,
		Tuples:         st.Mark.Tuples,
		Fit:            st.Mark.Fit,
		Altered:        st.Mark.Altered,
		AlterationRate: st.Mark.AlterationRate(),
		Bandwidth:      st.Mark.Bandwidth,
		FrequencyMoved: st.FrequencyMoved,
	}, nil
}

// execVerify verifies an inline suspect relation against a stored or
// inline certificate — the materialized path, with remap recovery and
// the frequency channel in play.
func (s *Server) execVerify(ctx context.Context, req api.VerifyRequest) (*api.VerifyResponse, *api.Error) {
	var rec *core.Record
	switch {
	case req.ID != "" && req.Record != nil:
		return nil, api.Errorf(api.CodeInvalidArgument, "pass either id or record, not both")
	case req.ID != "":
		var aerr *api.Error
		if rec, aerr = s.loadStoredRecord(req.ID); aerr != nil {
			return nil, aerr
		}
	case req.Record != nil:
		rec = req.Record
	default:
		return nil, api.Errorf(api.CodeInvalidArgument, "missing certificate: pass id or record")
	}
	suspect, _, err := decodeRelation(req.Schema, req.Format, req.Data)
	if err != nil {
		return nil, api.Errorf(api.CodeInvalidArgument, "relation: %v", err)
	}
	rep, err := rec.VerifyContext(ctx, suspect, core.VerifyOptions{
		Workers:    s.workersFor(req.Workers),
		Cache:      s.cache,
		HashKernel: s.cfg.HashKernel,
	})
	if err != nil {
		if aerr := ctxErr(err); aerr != nil {
			return nil, aerr
		}
		return nil, api.Errorf(api.CodeInvalidArgument, "verify: %v", err)
	}
	return &api.VerifyResponse{
		Match:             rep.Match,
		Detected:          rep.Detected,
		Verdict:           verdictFor(rep.Match),
		RemapRecovered:    rep.RemapRecovered,
		FrequencyMatch:    rep.FrequencyMatch,
		FalsePositiveProb: analysis.FalsePositiveProb(len(rec.WM)),
	}, nil
}

// execVerifyBatch is the inline-JSON form of batch verification: parse
// the suspect payload into a row reader, then run the shared scan.
func (s *Server) execVerifyBatch(ctx context.Context, req api.BatchVerifyRequest, progress func(tuples int)) (*api.BatchVerifyResponse, *api.Error) {
	if req.Schema == "" || req.Data == "" {
		return nil, api.Errorf(api.CodeInvalidArgument, "missing schema or data")
	}
	schema, err := relation.ParseSchemaSpec(req.Schema)
	if err != nil {
		return nil, api.Errorf(api.CodeInvalidArgument, "relation: %v", err)
	}
	src, err := payloadReaderForFormat(req.Format, req.Data, schema)
	if err != nil {
		return nil, api.Errorf(api.CodeInvalidArgument, "relation: %v", err)
	}
	return s.execVerifyBatchScan(ctx, req.Records, len(req.Records) != 0, src, req.Workers, progress)
}

// execVerifyBatchScan verifies one suspect stream against many stored
// certificates in a single pass. Explicitly requested IDs must all
// resolve (an unknown one is not_found); in whole-catalog mode a record
// deleted between List and Get is reported per-certificate instead of
// failing the audit.
func (s *Server) execVerifyBatchScan(ctx context.Context, ids []string, explicit bool, src relation.RawShardSource, workers int, progress func(tuples int)) (*api.BatchVerifyResponse, *api.Error) {
	if !explicit {
		all, err := s.store.List()
		if err != nil {
			return nil, api.Errorf(api.CodeInternal, "%v", err)
		}
		if len(all) == 0 {
			return nil, api.Errorf(api.CodeInvalidArgument, "no stored certificates to verify against")
		}
		ids = all
	}
	resp := &api.BatchVerifyResponse{Results: make([]api.BatchVerifyResult, len(ids))}
	var recs []*core.Record
	var live []int // position in recs -> position in ids
	for i, id := range ids {
		id = strings.TrimSpace(id)
		resp.Results[i].ID = id
		rec, err := s.store.Get(id)
		switch {
		case err == nil:
			recs = append(recs, rec)
			live = append(live, i)
		case errors.Is(err, store.ErrNotFound) && !explicit:
			resp.Results[i].Error = err.Error()
		case errors.Is(err, store.ErrNotFound):
			return nil, api.Errorf(api.CodeNotFound, "%v", err)
		default:
			return nil, api.Errorf(api.CodeInternal, "%v", err)
		}
	}

	opts := core.BatchOptions{
		Workers:    s.workersFor(workers),
		Cache:      s.cache,
		Progress:   progress,
		HashKernel: s.cfg.HashKernel,
	}
	// A coordinator with live workers fans the scan out across the
	// cluster; the merged result is bit-identical to the local pass (the
	// equivalence tests pin this), so callers cannot tell the difference
	// except in wall-clock. With no live workers the audit degrades to
	// the local scan rather than failing — an empty cluster is a
	// single-node server that happens to accept registrations.
	var outs []core.BatchReport
	var err error
	if s.coord != nil && s.coord.LiveWorkers() > 0 {
		if outs, err = s.clusterVerifyBatch(ctx, recs, src, opts); err != nil {
			return nil, clusterErr(err)
		}
	} else {
		if outs, err = core.VerifyBatch(ctx, recs, src, opts); err != nil {
			return nil, scanErr(err)
		}
	}
	for j, out := range outs {
		res := &resp.Results[live[j]]
		if out.Err != nil {
			res.Error = out.Err.Error()
		} else {
			res.Match = out.Report.Match
			res.Detected = out.Report.Detected
			res.Verdict = verdictFor(out.Report.Match)
			resp.Tuples = out.Report.Primary.Tuples
		}
	}
	return resp, nil
}

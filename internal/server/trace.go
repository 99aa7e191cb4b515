// The tracing face of the server: the trace-assembly endpoints over the
// span recorder of internal/obs/trace, plus the runtime log-level
// endpoint — the request-scoped observability surfaces next to the
// aggregate /metrics.
//
//	GET /v2/jobs/{id}/trace       assembled cross-process span tree of a job
//	GET /v2/internal/trace/{id}   this process's retained spans of a trace
//	GET /debug/traces             flight recorder: slowest + errored requests
//	GET /debug/loglevel           active log level
//	PUT /debug/loglevel           change the log level at runtime
//
// A job trace is assembled coordinator-side: the local ring holds the
// submitting request's span, the job spans and the per-shard dispatch
// spans; each live worker is asked for its shard of the trace by ID
// over the internal trace route, and the pieces — which share one trace
// ID thanks to traceparent propagation on the shard RPCs — are stitched
// into a tree by parent-span ID. Rings are bounded, so assembly is
// best-effort: an evicted span re-roots its children, an unreachable
// worker contributes nothing, and the tree that comes back is whatever
// the cluster still remembers.
package server

import (
	"net/http"
	"sort"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// nodeName is this process's identity on trace spans: the worker ID (or
// advertised URL) on a cluster worker, the role name on a coordinator,
// "local" on a single node.
func (s *Server) nodeName() string {
	cc := s.cfg.Cluster
	switch {
	case s.coord != nil:
		return "coordinator"
	case cc.JoinURL != "" && cc.WorkerID != "":
		return cc.WorkerID
	case cc.JoinURL != "":
		return cc.AdvertiseURL
	default:
		return "local"
	}
}

// spanToAPI serializes one retained span, stamped with the retaining
// process's identity.
func spanToAPI(sd trace.SpanData, node string) api.TraceSpan {
	sp := api.TraceSpan{
		TraceID:    sd.TraceID.String(),
		SpanID:     sd.SpanID.String(),
		Remote:     sd.Remote,
		Name:       sd.Name,
		Node:       node,
		Start:      sd.Start,
		DurationNs: int64(sd.Duration),
		Error:      sd.Err,
	}
	if !sd.Parent.IsZero() {
		sp.ParentID = sd.Parent.String()
	}
	if len(sd.Attrs) > 0 {
		sp.Attrs = make(map[string]string, len(sd.Attrs))
		for _, a := range sd.Attrs {
			sp.Attrs[a.Key] = a.Value
		}
	}
	return sp
}

// localSpans serializes this process's retained spans of one trace.
func (s *Server) localSpans(tid trace.TraceID) []api.TraceSpan {
	node := s.nodeName()
	data := s.trace.TraceSpans(tid)
	spans := make([]api.TraceSpan, len(data))
	for i, sd := range data {
		spans[i] = spanToAPI(sd, node)
	}
	return spans
}

// handleInternalTrace is GET /v2/internal/trace/{id}: one process's
// shard of a trace, the route a coordinator assembles worker subtrees
// from. Served by every role, like the scan route.
func (s *Server) handleInternalTrace(w http.ResponseWriter, r *http.Request) {
	tid, ok := trace.ParseTraceID(r.PathValue("id"))
	if !ok {
		writeErr(w, api.Errorf(api.CodeInvalidArgument,
			"invalid trace id %q (want 32 hex chars)", r.PathValue("id")))
		return
	}
	spans := s.localSpans(tid)
	if spans == nil {
		spans = []api.TraceSpan{}
	}
	writeJSON(w, http.StatusOK, api.TraceSpanList{Spans: spans})
}

// handleJobTrace is GET /v2/jobs/{id}/trace: the job's span tree across
// every process that worked on it.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, err := s.jobs.Get(id)
	if err != nil {
		writeErr(w, api.Errorf(api.CodeNotFound, "%v: %s", err, id))
		return
	}
	tid, ok := trace.ParseTraceID(snap.TraceID)
	if !ok {
		writeErr(w, api.Errorf(api.CodeNotFound,
			"job %s has no recorded trace (submitted without tracing?)", id))
		return
	}
	spans := s.localSpans(tid)
	if s.coord != nil {
		for _, ws := range s.coord.Status().Workers {
			if ws.URL == "" {
				continue
			}
			remote, err := client.New(ws.URL).TraceSpans(r.Context(), snap.TraceID)
			if err != nil {
				continue // best-effort: a down worker's spans are simply absent
			}
			for _, sp := range remote {
				if sp.Node == "" || sp.Node == "local" {
					sp.Node = ws.ID
				}
				spans = append(spans, sp)
			}
		}
	}
	sort.SliceStable(spans, func(a, b int) bool { return spans[a].Start.Before(spans[b].Start) })
	writeJSON(w, http.StatusOK, api.JobTrace{
		JobID:     id,
		TraceID:   snap.TraceID,
		SpanCount: len(spans),
		Roots:     assembleTrace(spans),
	})
}

// assembleTrace stitches a flat start-ordered span list into parent →
// child trees. A span whose parent is absent (evicted, unsampled, or on
// an unreachable process) becomes a root — the tree degrades instead of
// dropping spans.
func assembleTrace(spans []api.TraceSpan) []*api.TraceNode {
	nodes := make(map[string]*api.TraceNode, len(spans))
	uniq := make([]*api.TraceNode, 0, len(spans))
	for i := range spans {
		// First span wins a (theoretical) duplicate ID so the tree
		// cannot gain a cycle through a double-reported span.
		if _, dup := nodes[spans[i].SpanID]; dup {
			continue
		}
		n := &api.TraceNode{Span: spans[i]}
		nodes[spans[i].SpanID] = n
		uniq = append(uniq, n)
	}
	roots := []*api.TraceNode{}
	for _, n := range uniq {
		if p, ok := nodes[n.Span.ParentID]; ok && n.Span.ParentID != n.Span.SpanID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}

// handleFlight is GET /debug/traces: the flight recorder's retained
// root spans — errored requests newest first, then slowest successes.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	node := s.nodeName()
	data := s.trace.Flight()
	spans := make([]api.TraceSpan, len(data))
	for i, sd := range data {
		spans[i] = spanToAPI(sd, node)
	}
	writeJSON(w, http.StatusOK, api.FlightList{Spans: spans})
}

// handleGetLogLevel is GET /debug/loglevel. Only registered when the
// server was built over a *slog.LevelVar.
func (s *Server) handleGetLogLevel(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.LogLevelResponse{Level: obs.LevelString(s.cfg.LogLevel.Level())})
}

// handleSetLogLevel is PUT /debug/loglevel: flip the process's log
// level without a restart — drop to debug while chasing an incident,
// back to info after. The change itself is logged (at the new level's
// floor, Info) so the log stream records why its own density changed.
func (s *Server) handleSetLogLevel(w http.ResponseWriter, r *http.Request) {
	var req api.LogLevelRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	lvl, ok := obs.LookupLevel(req.Level)
	if !ok {
		writeErr(w, api.Errorf(api.CodeInvalidArgument,
			"unknown level %q (want debug, info, warn or error)", req.Level))
		return
	}
	prev := s.cfg.LogLevel.Level()
	s.cfg.LogLevel.Set(lvl)
	if s.cfg.Log != nil && prev != lvl {
		s.cfg.Log.Info("log level changed", "from", obs.LevelString(prev), "to", obs.LevelString(lvl))
	}
	writeJSON(w, http.StatusOK, api.LogLevelResponse{Level: obs.LevelString(lvl)})
}

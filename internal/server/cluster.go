// The cluster face of the server: the /v2/internal/* routes workers and
// coordinators speak to each other, the audit-path fan-out that turns a
// verify_batch into a distributed scan, and the role wiring behind
// wmserver's -coordinator and -join flags. One binary plays any role —
// every server can execute shards (the worker half costs nothing to
// serve), a coordinator additionally accepts registrations and schedules,
// and a worker additionally heartbeats its coordinator.
package server

import (
	"context"
	"errors"
	"net/http"
	"strings"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/relation"
)

// ClusterConfig selects the server's distributed-audit role.
type ClusterConfig struct {
	// Coordinator accepts worker registrations and fans verify_batch
	// audits out across them.
	Coordinator bool
	// Cluster tunes coordinator scheduling (shard size, retry budget,
	// lease TTL). Ignored unless Coordinator is set.
	Cluster cluster.Config
	// JoinURL, when set, joins this server to the coordinator at that
	// base URL as a scan worker (started by Join, which cmd/wmserver's
	// run path calls once the listener is up).
	JoinURL string
	// AdvertiseURL is the base URL the coordinator reaches this worker
	// at. Required with JoinURL.
	AdvertiseURL string
	// WorkerID names this worker across re-registrations; empty defaults
	// to AdvertiseURL.
	WorkerID string
	// Capacity is how many shards this worker scans concurrently; <= 0
	// means 1.
	Capacity int
}

// Coordinator exposes the cluster coordinator, nil on non-coordinator
// servers — tests use it to reach the membership table directly.
//
//wmlint:ignore reachable perfbench's audit_service waits on LiveWorkers through it; that module is not in the lint run's view
func (s *Server) Coordinator() *cluster.Coordinator { return s.coord }

// Join starts the worker agent declared by Config.Cluster.JoinURL, if
// any. It is separate from New because a worker can only advertise a URL
// once its listener is bound; server.Run calls it right after. Calling
// it twice, or on a server with no JoinURL, is a no-op.
func (s *Server) Join() {
	cc := s.cfg.Cluster
	if cc.JoinURL == "" || s.agent != nil {
		return
	}
	capacity := cc.Capacity
	if capacity <= 0 {
		capacity = 1
	}
	opts := []cluster.AgentOption{cluster.WithAgentObs(s.obs)}
	if s.cfg.Log != nil {
		opts = append(opts, cluster.WithAgentLogger(s.cfg.Log))
	}
	// Advertise the hash backend this worker scans with, for the
	// coordinator's /healthz.
	s.agent = cluster.StartAgent(cc.JoinURL, api.WorkerRegistration{
		ID:       cc.WorkerID,
		URL:      cc.AdvertiseURL,
		Capacity: capacity,
		Kernel:   string(s.selectedKernel()),
	}, opts...)
}

// handleRegisterWorker is POST /v2/internal/workers — the join and the
// heartbeat (registration is an idempotent lease refresh). Only a
// coordinator serves it; on other roles the route is simply not
// registered and falls through to the structured 404.
func (s *Server) handleRegisterWorker(w http.ResponseWriter, r *http.Request) {
	var reg api.WorkerRegistration
	if !s.decodeBody(w, r, &reg) {
		return
	}
	if reg.URL == "" {
		writeErr(w, api.Errorf(api.CodeInvalidArgument, "worker registration needs a url"))
		return
	}
	writeJSON(w, http.StatusOK, s.coord.Register(reg))
}

// handleInternalScan is POST /v2/internal/scan: scan one row-range shard
// against the request's certificate set and return the partial tallies
// in binary (api.ContentTypeTally). The body is an api.ContentTypeShard
// frame — a JSON header, the certificate array, then the raw rows, which
// the block reader parses straight off the request body; the array
// resolves through this server's record-set cache, so each job's
// certificates are decoded once. Served by every role — the shard
// carries everything the scan needs, so even a coordinator can execute
// one (and a single binary can be pointed at itself in tests).
func (s *Server) handleInternalScan(w http.ResponseWriter, r *http.Request) {
	if mt := requestMediaType(r); mt != api.ContentTypeShard {
		writeErr(w, api.Errorf(api.CodeInvalidArgument,
			"shard scan body must be %s, got %q", api.ContentTypeShard, mt))
		return
	}
	resp, err := cluster.ExecuteShardFrame(r.Context(), r.Body, s.cfg.MaxBodyBytes, s.recordSets, core.BatchOptions{
		Workers:    s.cfg.Workers,
		Cache:      s.cache,
		HashKernel: s.cfg.HashKernel,
	})
	if err == nil {
		var body []byte
		if body, err = resp.AppendBinary(nil); err == nil {
			w.Header().Set("Content-Type", api.ContentTypeTally)
			w.Write(body) //nolint:errcheck // nothing left to report
			return
		}
	}
	writeErr(w, shardScanErr(err))
}

// shardScanErr classifies a failed shard request: a tripped body limit
// is payload_too_large and a cancellation is cancelled, as on every
// streaming path; anything else — framing, certificates, rows — is the
// request's fault.
func shardScanErr(err error) *api.Error {
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) || ctxErr(err) != nil {
		return scanErr(err)
	}
	return api.Errorf(api.CodeInvalidArgument, "shard scan: %v", err)
}

// clusterVerifyBatch is the distributed middle of execVerifyBatchScan:
// the same PrepareBatch/Reports bracket as the local path, with the scan
// fanned out across the cluster instead of run in-process. Bit-identical
// to the local scan by the tally-merge contract (see the equivalence
// tests); per-certificate prep failures are reported identically because
// they never leave the coordinator.
func (s *Server) clusterVerifyBatch(ctx context.Context, recs []*core.Record, src relation.RawShardSource, opts core.BatchOptions) ([]core.BatchReport, error) {
	prep := core.PrepareBatch(recs, src.Schema(), opts)
	if len(prep.Scanners()) == 0 {
		return prep.Reports(nil), nil
	}
	tallies, err := s.coord.ScanShards(ctx, src, prep.Scanners(), cluster.ScanJob{
		Records:   prep.Records(),
		Schema:    relation.SchemaSpec(src.Schema()),
		BlockRows: opts.BlockSize,
		Workers:   opts.Workers,
		Progress:  opts.Progress,
	})
	if err != nil {
		return nil, err
	}
	return prep.Reports(tallies), nil
}

// clusterErr classifies a failed distributed scan: cancellation and
// suspect-data problems keep the codes the local path would use, while
// cluster-side failures (no live workers, a shard out of retries) are
// the server's problem — internal, retryable — not the caller's.
func clusterErr(err error) *api.Error {
	if aerr := ctxErr(err); aerr != nil {
		return aerr
	}
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		// A tripped body limit surfaces through the shard reader too;
		// keep the local path's 413 so clients shrink and retry.
		return api.Errorf(api.CodePayloadTooLarge,
			"request body exceeds %d bytes", maxErr.Limit)
	}
	if errors.Is(err, cluster.ErrNoWorkers) || strings.HasPrefix(err.Error(), "cluster:") {
		return api.Errorf(api.CodeInternal, "distributed audit: %v", err)
	}
	return api.Errorf(api.CodeInvalidArgument, "suspect data: %v", err)
}

// clusterStatus renders this server's role for /healthz.
func (s *Server) clusterStatus() api.ClusterStatus {
	switch {
	case s.coord != nil:
		return s.coord.Status()
	case s.cfg.Cluster.JoinURL != "":
		st := api.ClusterStatus{Role: api.RoleWorker, Coordinator: s.cfg.Cluster.JoinURL}
		if s.agent != nil {
			if err := s.agent.LastError(); err != nil {
				st.HeartbeatError = err.Error()
			}
		}
		return st
	default:
		return api.ClusterStatus{Role: api.RoleSingle}
	}
}

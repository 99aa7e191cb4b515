package cluster

import (
	"log/slog"

	"repro/internal/obs"
)

// metrics is the coordinator's telemetry bundle, nil unless the
// coordinator was built with WithObs. Dispatch/retry/failure counters
// and shard latency histograms are labeled by worker ID; membership
// gauges are sampled from the live membership table at scrape time so
// /metrics and the /healthz cluster block read the same state.
type metrics struct {
	dispatched  *obs.CounterVec   // worker
	retries     *obs.CounterVec   // worker
	failures    *obs.CounterVec   // worker
	latency     *obs.HistogramVec // worker
	transitions *obs.CounterVec   // event
}

func newCoordinatorMetrics(r *obs.Registry, c *Coordinator) *metrics {
	met := &metrics{
		dispatched: r.CounterVec("wm_cluster_shards_dispatched_total",
			"Shard RPCs dispatched, by worker.", "worker"),
		retries: r.CounterVec("wm_cluster_shard_retries_total",
			"Shards requeued after a failed attempt, by worker that failed them.", "worker"),
		failures: r.CounterVec("wm_cluster_shard_failures_total",
			"Shard RPC attempts that returned an error, by worker.", "worker"),
		latency: r.HistogramVec("wm_cluster_shard_duration_seconds",
			"Shard RPC round-trip latency, by worker.", obs.WideBuckets, "worker"),
		transitions: r.CounterVec("wm_cluster_membership_transitions_total",
			"Membership table transitions (join, revive, unreachable, prune).", "event"),
	}
	r.Sampled("wm_cluster_workers_live",
		"Workers holding a current lease.", obs.TypeGauge,
		func(emit obs.Emit) { emit(float64(c.LiveWorkers())) })
	r.Sampled("wm_cluster_worker_heartbeat_age_seconds",
		"Seconds since each registered worker's last heartbeat.", obs.TypeGauge,
		func(emit obs.Emit) {
			for _, w := range c.Status().Workers {
				emit(w.LastHeartbeatAgeSeconds, w.ID)
			}
		}, "worker")
	r.Sampled("wm_cluster_worker_active_shards",
		"Shards currently dispatched to each registered worker.", obs.TypeGauge,
		func(emit obs.Emit) {
			for _, w := range c.Status().Workers {
				emit(float64(w.ActiveShards), w.ID)
			}
		}, "worker")
	return met
}

// transition counts one membership event; nil-safe.
func (met *metrics) transition(event string) {
	if met != nil {
		met.transitions.With(event).Inc()
	}
}

// WithLogger routes the coordinator's membership and shard-dispatch
// logging to l.
func WithLogger(l *slog.Logger) CoordinatorOption {
	return func(c *Coordinator) {
		if l != nil {
			c.log = l
		}
	}
}

// WithObs registers the coordinator's wm_cluster_* metric families on r.
func WithObs(r *obs.Registry) CoordinatorOption {
	return func(c *Coordinator) { c.met = newCoordinatorMetrics(r, c) }
}

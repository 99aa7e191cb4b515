// Package cluster is the distributed-audit subsystem: a coordinator that
// fans one corpus verification out across N worker nodes and merges the
// results into a report bit-identical to a single-node scan.
//
// The paper's detector makes this shape cheap. Every per-tuple decision
// derives from the tuple's own key, so a suspect corpus partitions into
// contiguous row-range shards that scan independently; and a detection
// pass accumulates into a mark.Tally whose partials merge in row order
// into exactly the sequential result (pipeline.ScanMany is the
// single-node form of the same identity). The cluster simply moves the
// shard boundary from goroutines to machines:
//
//	        POST /v2/jobs (verify_batch)           [public API]
//	                  │
//	            coordinator ──────────────┐
//	             │ skims record           │ merge partial tallies
//	             │ boundaries; frame:     │ in row order, Report
//	             │ JSON header, the job's │
//	             │ cert array (encoded    │ binary tallies
//	             │ once), the raw rows    │ (application/x-wm-tally)
//	             ▼                        │
//	POST {worker}/v2/internal/scan        │
//	     worker-1 … worker-N ─────────────┘
//	     (workers parse the rows; cert arrays
//	      decode once per set, then hit a cache)
//	     └─ heartbeat: POST {coordinator}/v2/internal/workers
//
// Membership is lease-based: workers register (and keep re-registering —
// the registration IS the heartbeat) with a URL and a capacity, and the
// coordinator stops dispatching to any worker whose lease has aged past
// the TTL. A shard that fails — worker error, unreachable node, timeout —
// is retried on the surviving workers until MaxShardAttempts is spent, so
// killing a worker mid-audit costs latency, not correctness. Transport
// failures additionally mark the worker unreachable immediately (faster
// than waiting out the TTL); its next successful heartbeat revives it.
//
// The coordinator never parses the suspect. ScanShards takes a
// relation.RawShardSource and cuts shards with its SkimRecords, which
// finds record boundaries without decoding a field, so every row is
// parsed exactly once — on the worker that scans it. A JSONL suspect
// that arrived inline in a JSON job body is already whole in memory; its
// relation.JSONLPayloadReader skims with SkimSpan instead, so each shard
// is a substring of that payload and the coordinator copies no row. Only
// records the skim cannot delimit fail the scan on the coordinator. Field-level
// errors surface as a worker's 400 invalid_argument, which is ambiguous
// (bad rows, or a faulty worker); the coordinator settles it by parsing
// that one shard itself, failing the scan without retry — naming the
// shard's row range — when the parse fails, and retrying the shard
// elsewhere when it succeeds.
//
// A shard travels as a framed body (api.ContentTypeShard): a small JSON
// api.ShardScanRequest header carrying records_len, then that many bytes
// of the JSON certificate array, then the shard's raw CSV or JSONL bytes
// exactly as the coordinator cut them from the suspect, so rows are
// never escaped on the way out or unescaped on the way in. The
// certificates are lean: copies without the frequency profile, which
// workers never read and which the scanner-cache key excludes.
// ScanShards encodes them once per job, so every shard of the job
// carries the same bytes. The reply is binary (api.ContentTypeTally):
// uvarint counters and raw last-vote bytes, about an eighth the size of
// the indented JSON tallies it replaced. A reply merges only if it carries one
// bandwidth-checked tally per certificate and scanned exactly the
// shard's row count; a short or undecodable reply is retried like a
// worker error, and the worker keeps its lease.
//
// The worker side is ExecuteShardFrame: ReadShardRequest splits the body
// into header, certificate array and rows; a RecordSetCache keyed by the
// array's exact bytes decodes each job's certificates once; scanners are
// prepared from them (every scan parameter derives deterministically
// from a certificate, which is why coordinator- and worker-side scanners
// cannot disagree); pipeline.ScanMany runs with the block reader parsing
// the rows straight off the request body; and the partial tallies come
// back in wire form (mark.TallyWire). ExecuteShard is the same scan over
// rows and records held in memory. internal/server binds the worker side
// to POST /v2/internal/scan and the coordinator to the public audit
// endpoints; cmd/wmserver's -coordinator and -join flags pick the role.
package cluster

import (
	"errors"
	"time"
)

// Defaults for Config's zero values.
const (
	// DefaultHeartbeat is the worker re-registration interval.
	DefaultHeartbeat = 2 * time.Second
	// DefaultTTLFactor sets the lease TTL as a multiple of the heartbeat
	// interval: a worker may miss two beats before it stops receiving
	// shards.
	DefaultTTLFactor = 3
	// DefaultShardRows is the row count of each dispatched shard.
	DefaultShardRows = 8192
	// DefaultMaxShardAttempts bounds how many workers a shard is tried on
	// before the audit fails.
	DefaultMaxShardAttempts = 3
	// DefaultMaxBufferedShards bounds how many undispatched shard
	// payloads the reader may hold serialized in memory — the
	// backpressure that keeps a coordinator auditing a corpus larger
	// than its RAM from buffering the whole thing when workers scan
	// slower than the reader reads.
	DefaultMaxBufferedShards = 32
	// DefaultShardTimeout bounds one shard RPC; a worker that accepts a
	// shard and hangs is treated like an unreachable one.
	DefaultShardTimeout = 5 * time.Minute
	// DefaultTargetShardLatency is the per-shard wall time auto shard
	// sizing aims each worker at: long enough to amortize the RPC and
	// serialization overhead, short enough that a lost worker costs
	// little rework and stragglers can't stall the merge for long.
	DefaultTargetShardLatency = 2 * time.Second
	// DefaultMinShardRows floors auto-sized shards so a worker whose
	// observed throughput momentarily collapses (GC pause, noisy
	// neighbor) isn't handed confetti-sized shards forever.
	DefaultMinShardRows = 256
	// DefaultMaxShardRows caps auto-sized shards so a very fast worker
	// doesn't get handed a shard whose serialized payload dominates
	// coordinator memory and whose loss costs a huge retry.
	DefaultMaxShardRows = 1 << 18
)

// Config tunes a Coordinator.
type Config struct {
	// Heartbeat is the re-registration interval advertised to workers;
	// <= 0 means DefaultHeartbeat.
	Heartbeat time.Duration
	// TTL is how long a worker's lease lasts without a heartbeat; <= 0
	// means DefaultTTLFactor × Heartbeat.
	TTL time.Duration
	// ShardRows is the number of suspect rows per dispatched shard; <= 0
	// means DefaultShardRows.
	ShardRows int
	// MaxShardAttempts is how many distinct dispatch attempts one shard
	// gets before the audit fails; <= 0 means DefaultMaxShardAttempts.
	MaxShardAttempts int
	// MaxBufferedShards bounds the undispatched shard payloads held in
	// memory; the reader parks when the queue is full. <= 0 means
	// DefaultMaxBufferedShards.
	MaxBufferedShards int
	// ShardTimeout bounds a single shard RPC; <= 0 means
	// DefaultShardTimeout.
	ShardTimeout time.Duration
	// AutoShardRows switches shard sizing from the fixed ShardRows to
	// throughput-driven autotuning: the coordinator learns each worker's
	// rows/s from completed shards (seeded by the calibrated hash rate
	// the worker advertises at registration) and cuts each next shard so
	// that the worker it is headed for finishes in ~TargetShardLatency.
	// Fixed mode is byte-identical to pre-autotuning behavior.
	AutoShardRows bool
	// TargetShardLatency is the per-shard wall time autotuning aims for;
	// <= 0 means DefaultTargetShardLatency. Ignored unless AutoShardRows.
	TargetShardLatency time.Duration
	// MinShardRows / MaxShardRows clamp auto-sized shards; <= 0 means
	// DefaultMinShardRows / DefaultMaxShardRows. Ignored unless
	// AutoShardRows.
	MinShardRows int
	MaxShardRows int
}

func (c Config) heartbeat() time.Duration {
	if c.Heartbeat <= 0 {
		return DefaultHeartbeat
	}
	return c.Heartbeat
}

func (c Config) ttl() time.Duration {
	if c.TTL <= 0 {
		return DefaultTTLFactor * c.heartbeat()
	}
	return c.TTL
}

func (c Config) shardRows() int {
	if c.ShardRows <= 0 {
		return DefaultShardRows
	}
	return c.ShardRows
}

func (c Config) maxShardAttempts() int {
	if c.MaxShardAttempts <= 0 {
		return DefaultMaxShardAttempts
	}
	return c.MaxShardAttempts
}

func (c Config) maxBufferedShards() int {
	if c.MaxBufferedShards <= 0 {
		return DefaultMaxBufferedShards
	}
	return c.MaxBufferedShards
}

func (c Config) shardTimeout() time.Duration {
	if c.ShardTimeout <= 0 {
		return DefaultShardTimeout
	}
	return c.ShardTimeout
}

func (c Config) targetShardLatency() time.Duration {
	if c.TargetShardLatency <= 0 {
		return DefaultTargetShardLatency
	}
	return c.TargetShardLatency
}

func (c Config) minShardRows() int {
	if c.MinShardRows <= 0 {
		return DefaultMinShardRows
	}
	return c.MinShardRows
}

func (c Config) maxShardRows() int {
	if c.MaxShardRows <= 0 {
		return DefaultMaxShardRows
	}
	return c.MaxShardRows
}

// ErrNoWorkers reports a scan that cannot proceed because no live worker
// remains to dispatch to. Callers decide whether to fail the audit or
// fall back to a local scan.
var ErrNoWorkers = errors.New("cluster: no live workers")

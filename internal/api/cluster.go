package api

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/mark"
)

// Cluster wire types: the coordinator/worker protocol behind distributed
// verify_batch audits. A cluster is one coordinator (the node the public
// API is pointed at) plus N workers; workers announce themselves with
// WorkerRegistration heartbeats, and the coordinator fans a corpus audit
// out as ShardScanRequests — contiguous row-range shards of the suspect
// plus the full certificate set — merging the returned partial tallies in
// row order into a report bit-identical to a single-node scan.
//
// The /v2/internal/* routes these types travel are cluster-internal:
// ShardScanRequest carries certificates WITH their owner secrets (a
// worker cannot compute the keyed hashes without them), so these
// endpoints must only ever be reachable inside the trust boundary the
// certificate store itself lives in.

// Cluster roles, as reported by /healthz.
const (
	// RoleSingle is a standalone server: no cluster configured, audits
	// scan locally.
	RoleSingle = "single"
	// RoleCoordinator accepts worker registrations and fans audits out.
	RoleCoordinator = "coordinator"
	// RoleWorker serves shard scans and heartbeats a coordinator.
	RoleWorker = "worker"
)

// WorkerRegistration is the POST /v2/internal/workers body — both the
// initial join and every subsequent heartbeat (registration is idempotent
// upsert; the coordinator refreshes the worker's lease each time).
type WorkerRegistration struct {
	// ID identifies the worker across re-registrations; a restarted
	// worker re-joining under the same ID replaces its old entry. Empty
	// defaults to URL.
	ID string `json:"id,omitempty"`
	// URL is the base URL the coordinator dispatches shards to.
	URL string `json:"url"`
	// Capacity is how many shards the worker scans concurrently; <= 0
	// means 1.
	Capacity int `json:"capacity,omitempty"`
	// Kernel is the hash backend the worker's scans run on (the
	// KernelAuto rule's pick, or a pinned kind). Informational: the
	// coordinator surfaces it in /healthz.
	Kernel string `json:"kernel,omitempty"`
}

// WorkerAck is the registration reply: the lease terms the coordinator
// expects the worker to heartbeat under.
type WorkerAck struct {
	// HeartbeatSeconds is the interval the worker should re-register at.
	HeartbeatSeconds float64 `json:"heartbeat_seconds"`
	// TTLSeconds is how long the lease lasts without a heartbeat before
	// the coordinator stops dispatching to the worker.
	TTLSeconds float64 `json:"ttl_seconds"`
}

// WorkerStatus is one worker's membership entry in ClusterStatus.
type WorkerStatus struct {
	ID       string `json:"id"`
	URL      string `json:"url"`
	Capacity int    `json:"capacity"`
	// Live reports whether the lease is current (heartbeat age < TTL and
	// the worker is not marked unreachable).
	Live bool `json:"live"`
	// LastHeartbeatAgeSeconds is the age of the newest heartbeat.
	LastHeartbeatAgeSeconds float64 `json:"last_heartbeat_age_seconds"`
	// ActiveShards is how many dispatched shards the worker currently
	// holds.
	ActiveShards int `json:"active_shards"`
	// Kernel is the hash backend the worker advertised at registration.
	Kernel string `json:"kernel,omitempty"`
}

// ClusterStatus is the cluster block of the /healthz body.
type ClusterStatus struct {
	// Role is RoleSingle, RoleCoordinator or RoleWorker.
	Role string `json:"role"`
	// Coordinator is the coordinator base URL a worker is joined to
	// (workers only).
	Coordinator string `json:"coordinator,omitempty"`
	// HeartbeatError is the worker's latest failed registration attempt
	// (workers only; empty while heartbeats succeed). A -join pointed at
	// a typo'd URL or a non-coordinator shows up here instead of
	// silently never forming a cluster.
	HeartbeatError string `json:"heartbeat_error,omitempty"`
	// LiveWorkers counts workers with a current lease (coordinator only).
	LiveWorkers int `json:"live_workers"`
	// Workers lists the membership table, live and expired (coordinator
	// only).
	Workers []WorkerStatus `json:"workers,omitempty"`
}

// ShardScanRequest describes one contiguous row-range shard of a suspect
// corpus plus every certificate riding the audit. The worker scans the
// shard once with the certificate loop inside the block loop
// (pipeline.ScanMany) and returns one partial tally per certificate.
//
// On the wire (POST /v2/internal/scan, Content-Type ContentTypeShard) it
// is the framing header, not the whole body. The JSON-encoded request,
// with Data and Records empty and RecordsLen set, comes first. Exactly
// RecordsLen bytes of the JSON certificate array follow it, then the
// shard's raw CSV or JSONL bytes to the end of the body. So the rows
// travel unescaped and the worker's block reader parses them straight
// off the request body, and the certificate array is a byte string the
// coordinator encodes once per job and a worker decodes once per
// distinct set: workers cache decoded sets by their exact bytes. A
// header that carries inline Data or Records, or no positive
// RecordsLen, is rejected. ShardHeader writes the header;
// client.ScanShard sends a frame and cluster.ReadShardRequest splits one.
//
// The certificates ship lean: the coordinator sends copies with Profile
// nil, because a shard scan never reads the frequency profile (only
// single-record remap recovery does) and core's scanner-cache key
// excludes it.
type ShardScanRequest struct {
	// Shard is the shard's index in row order — echoed back so responses
	// can be matched to ranges, and the order partials merge in.
	Shard int `json:"shard"`
	// Schema is the schema-spec string the shard rows conform to.
	Schema string `json:"schema"`
	// Format of the rows: "csv" (default) or "jsonl".
	Format string `json:"format,omitempty"`
	// Data holds the shard's rows, serialized in Format, for in-process
	// callers (cluster.ExecuteShard, client.ScanShard). It is always
	// empty in a wire header: the rows follow the certificate array raw.
	Data string `json:"data,omitempty"`
	// Records is the certificate set, secrets included — every scan
	// parameter derives deterministically from a record, which is what
	// keeps worker-side scanners identical to the coordinator's. It is
	// always empty in a wire header: the set travels as the frame's
	// certificate array.
	Records []*core.Record `json:"records,omitempty"`
	// RecordsLen is the byte length of the JSON certificate array that
	// follows a wire header. Unused by in-process callers.
	RecordsLen int `json:"records_len,omitempty"`
	// BlockRows overrides the worker's scan-block size; 0 or negative
	// means mark.DefaultBlockRows.
	BlockRows int `json:"block_rows,omitempty"`
	// Workers lowers the worker node's per-shard scan parallelism;
	// values above the node's own count are clamped to it.
	Workers int `json:"workers,omitempty"`
}

// ShardHeader returns the JSON header of a ContentTypeShard frame for
// req, announcing a certificate array of recordsLen bytes. req's Data
// and Records are left out: they travel after the header.
func ShardHeader(req ShardScanRequest, recordsLen int) ([]byte, error) {
	req.Data, req.Records, req.RecordsLen = "", nil, recordsLen
	return json.Marshal(req)
}

// ShardScanResponse is the shard scan reply: partial tallies in request
// certificate order. A worker sends it in binary (ContentTypeTally,
// AppendBinary); the JSON tags serve in-process tooling and tests.
type ShardScanResponse struct {
	// Shard echoes the request's shard index.
	Shard int `json:"shard"`
	// Rows is the number of shard rows scanned.
	Rows int `json:"rows"`
	// Tallies holds one partial tally per request certificate, to be
	// merged in shard order with mark.Tally.Merge.
	Tallies []mark.TallyWire `json:"tallies"`
}

// AppendBinary appends the binary form of r to b: Shard as a zigzag
// varint, Rows and the tally count as uvarints, then each tally in
// mark.TallyWire's binary form. Rows must be non-negative.
func (r *ShardScanResponse) AppendBinary(b []byte) ([]byte, error) {
	if r.Rows < 0 {
		return b, fmt.Errorf("api: negative shard row count %d", r.Rows)
	}
	b = binary.AppendVarint(b, int64(r.Shard))
	b = binary.AppendUvarint(b, uint64(r.Rows))
	b = binary.AppendUvarint(b, uint64(len(r.Tallies)))
	for i := range r.Tallies {
		var err error
		if b, err = r.Tallies[i].AppendBinary(b); err != nil {
			return b, err
		}
	}
	return b, nil
}

// minBinaryTallyLen is the smallest binary TallyWire: six one-byte
// uvarints (three counters, three zero lengths).
const minBinaryTallyLen = 6

// UnmarshalBinary decodes exactly the binary form AppendBinary writes:
// minimal uvarints, every length checked against the remaining input,
// no trailing bytes.
func (r *ShardScanResponse) UnmarshalBinary(data []byte) error {
	d := mark.NewBinaryDecoder(data)
	v := ShardScanResponse{Shard: d.Varint(), Rows: d.Int()}
	v.Tallies = make([]mark.TallyWire, d.Len(minBinaryTallyLen))
	for i := range v.Tallies {
		v.Tallies[i] = d.TallyWire()
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("api: shard response: %w", err)
	}
	*r = v
	return nil
}

// MaxShardResponseLen bounds the binary ShardScanResponse a worker may
// send for certificates of the given bandwidths — the reply read limit.
func MaxShardResponseLen(bandwidths []int) int64 {
	n := int64(3 * binary.MaxVarintLen64)
	for _, b := range bandwidths {
		n += int64(mark.MaxBinaryLen(b))
	}
	return n
}

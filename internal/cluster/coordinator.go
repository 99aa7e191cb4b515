package cluster

import (
	"log/slog"
	"sort"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/obs"
)

// Coordinator owns the cluster membership table and schedules shard
// scans over it. Create with NewCoordinator; it holds no goroutines of
// its own — registration is driven by worker heartbeats arriving over
// HTTP, scans by ScanShards callers.
type Coordinator struct {
	cfg Config
	// now is the clock, swappable in tests to age leases synthetically.
	now func() time.Time
	// log receives membership transitions and shard dispatch events;
	// defaults to a discard logger.
	log *slog.Logger
	// met is the telemetry bundle, nil without WithObs.
	met *metrics

	mu      sync.Mutex
	members map[string]*member
	scans   map[*scan]struct{}
}

// member is one registered worker.
type member struct {
	id       string
	url      string
	capacity int
	client   *client.Client
	lastSeen time.Time
	// active counts dispatched shards the worker currently holds.
	active int
	// unreachable marks a worker whose transport failed mid-scan; it
	// stops receiving shards immediately (no TTL wait) until a fresh
	// heartbeat revives it.
	unreachable bool
	// kernel echoes the hash backend the worker's registration names.
	kernel string
}

// CoordinatorOption customises a Coordinator.
type CoordinatorOption func(*Coordinator)

// withClock substitutes the coordinator's clock (tests only).
func withClock(now func() time.Time) CoordinatorOption {
	return func(c *Coordinator) { c.now = now }
}

// NewCoordinator returns an empty-membership coordinator.
func NewCoordinator(cfg Config, opts ...CoordinatorOption) *Coordinator {
	c := &Coordinator{
		cfg:     cfg,
		now:     time.Now,
		log:     obs.Discard(),
		members: make(map[string]*member),
		scans:   make(map[*scan]struct{}),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Register upserts a worker from a registration (the join and every
// heartbeat look the same) and returns the lease terms. A re-registration
// under a known ID refreshes the lease, revives an unreachable worker,
// and adopts any changed URL or capacity; in-flight shard counts survive,
// so a heartbeat landing mid-scan never double-books capacity.
func (c *Coordinator) Register(reg api.WorkerRegistration) api.WorkerAck {
	id := reg.ID
	if id == "" {
		id = reg.URL
	}
	capacity := reg.Capacity
	if capacity <= 0 {
		capacity = 1
	}
	c.mu.Lock()
	m, ok := c.members[id]
	if !ok {
		m = &member{id: id}
		c.members[id] = m
	}
	revived := ok && m.unreachable
	if m.url != reg.URL || m.client == nil {
		m.url = reg.URL
		m.client = client.New(reg.URL)
	}
	m.capacity = capacity
	m.lastSeen = c.now()
	m.unreachable = false
	m.kernel = reg.Kernel
	pruned := c.pruneLocked()
	scans := c.activeScansLocked()
	c.mu.Unlock()

	switch {
	case !ok:
		c.met.transition("join")
		c.log.Info("cluster: worker joined", "worker", id, "url", reg.URL, "capacity", capacity)
	case revived:
		c.met.transition("revive")
		c.log.Info("cluster: worker revived", "worker", id)
	}
	for _, p := range pruned {
		c.met.transition("prune")
		c.log.Info("cluster: worker pruned after expired lease", "worker", p)
	}

	// A new or revived worker is fresh dispatch capacity — wake every
	// in-flight scan so parked shards get handed to it.
	for _, s := range scans {
		s.wake()
	}
	return api.WorkerAck{
		HeartbeatSeconds: c.cfg.heartbeat().Seconds(),
		TTLSeconds:       c.cfg.ttl().Seconds(),
	}
}

// liveLocked reports whether a member may receive shards.
func (c *Coordinator) liveLocked(m *member) bool {
	return !m.unreachable && c.now().Sub(m.lastSeen) <= c.cfg.ttl()
}

// pruneLocked drops members whose lease expired long ago (10×TTL) so the
// table does not accumulate every worker that ever joined. Members with
// in-flight shards are kept — their scan goroutines still hold them.
// Returns the pruned IDs so the caller can log and count them outside
// the lock.
func (c *Coordinator) pruneLocked() []string {
	cutoff := c.now().Add(-10 * c.cfg.ttl())
	var pruned []string
	for id, m := range c.members {
		if m.active == 0 && m.lastSeen.Before(cutoff) {
			delete(c.members, id)
			pruned = append(pruned, id)
		}
	}
	return pruned
}

// LiveWorkers counts workers with a current lease — the signal the
// server's audit path uses to choose cluster fan-out over a local scan.
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, m := range c.members {
		if c.liveLocked(m) {
			n++
		}
	}
	return n
}

// Status reports the membership table for /healthz, sorted by worker ID.
func (c *Coordinator) Status() api.ClusterStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := api.ClusterStatus{Role: api.RoleCoordinator}
	for _, m := range c.members {
		live := c.liveLocked(m)
		if live {
			st.LiveWorkers++
		}
		st.Workers = append(st.Workers, api.WorkerStatus{
			ID:                      m.id,
			URL:                     m.url,
			Capacity:                m.capacity,
			Live:                    live,
			LastHeartbeatAgeSeconds: c.now().Sub(m.lastSeen).Seconds(),
			ActiveShards:            m.active,
			Kernel:                  m.kernel,
		})
	}
	sort.Slice(st.Workers, func(a, b int) bool { return st.Workers[a].ID < st.Workers[b].ID })
	return st
}

// acquire reserves one shard slot on a live worker, preferring workers
// outside avoid (the set that already failed this shard) and, among
// those, the least-loaded. While a live non-avoided worker exists —
// even a momentarily busy one — avoided workers are never used: waiting
// for a good worker's slot beats burning one of the shard's bounded
// attempts on a worker known to fail it. Only when every live worker has
// already failed the shard is an avoided one handed out — with a single
// surviving worker, retrying there beats failing the audit. Returns nil
// when the shard should wait (or no live worker exists at all).
func (c *Coordinator) acquire(avoid map[string]bool) *member {
	c.mu.Lock()
	defer c.mu.Unlock()
	pickFree := func(skipAvoided bool) *member {
		var best *member
		for _, m := range c.members {
			if !c.liveLocked(m) || m.active >= m.capacity {
				continue
			}
			if skipAvoided && avoid[m.id] {
				continue
			}
			if best == nil || m.active < best.active ||
				(m.active == best.active && m.id < best.id) {
				best = m
			}
		}
		return best
	}
	m := pickFree(true)
	if m == nil && !c.hasLiveOutsideLocked(avoid) {
		m = pickFree(false)
	}
	if m != nil {
		m.active++
	}
	return m
}

// hasLiveOutsideLocked reports whether any live worker — busy or not —
// exists outside the avoid set. Callers hold c.mu.
func (c *Coordinator) hasLiveOutsideLocked(avoid map[string]bool) bool {
	for _, m := range c.members {
		if c.liveLocked(m) && !avoid[m.id] {
			return true
		}
	}
	return false
}

// release returns a shard slot. unreachable additionally marks the worker
// dead until its next heartbeat — the fast path for a killed node, so the
// retried shard does not wait out the TTL to avoid it.
func (c *Coordinator) release(m *member, unreachable bool) {
	c.mu.Lock()
	m.active--
	if unreachable {
		m.unreachable = true
	}
	scans := c.activeScansLocked()
	c.mu.Unlock()
	if unreachable {
		c.met.transition("unreachable")
		c.log.Warn("cluster: worker unreachable, excluded until next heartbeat", "worker", m.id)
	}
	for _, s := range scans {
		s.wake()
	}
}

// addScan/removeScan track in-flight scans so membership changes can wake
// their dispatchers.
func (c *Coordinator) addScan(s *scan) {
	c.mu.Lock()
	c.scans[s] = struct{}{}
	c.mu.Unlock()
}

func (c *Coordinator) removeScan(s *scan) {
	c.mu.Lock()
	delete(c.scans, s)
	c.mu.Unlock()
}

func (c *Coordinator) activeScansLocked() []*scan {
	out := make([]*scan, 0, len(c.scans))
	for s := range c.scans {
		out = append(out, s)
	}
	return out
}

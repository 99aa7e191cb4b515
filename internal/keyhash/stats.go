package keyhash

import "sync/atomic"

// kernelCounters is one backend's process-wide HashColumn activity: two
// atomic adds per HashColumn call (i.e. per block lane, not per value), so
// the hash hot loop itself is untouched. Each backendDef owns a pair;
// kernels tick the pair of the def that built them.
type kernelCounters struct {
	calls  atomic.Uint64
	values atomic.Uint64
}

func (c *kernelCounters) tick(values int) {
	c.calls.Add(1)
	c.values.Add(uint64(values))
}

// KernelCounters is the cumulative HashColumn activity of one backend.
type KernelCounters struct {
	Calls  uint64 // HashColumn invocations
	Values uint64 // key values hashed across those calls
}

// ActiveKernel names the backend a KernelAuto request resolves to on
// this CPU, as the spelling NewKernel accepts. Trace spans attach it so
// a shard's phase timings can be read against the kernel that produced
// them.
func ActiveKernel() string {
	return string(AutoKind())
}

// KernelStats reports per-backend HashColumn totals for this process,
// keyed by the concrete kernel kind (KernelAuto resolves to whichever
// backend it picked, so it never appears as a key). The map is built
// from the backend registry, so every kind NewKernel accepts appears —
// a new backend can't silently vanish from /metrics.
func KernelStats() map[KernelKind]KernelCounters {
	out := make(map[KernelKind]KernelCounters, len(registry))
	for _, d := range registry {
		out[d.kind] = KernelCounters{
			Calls:  d.counters.calls.Load(),
			Values: d.counters.values.Load(),
		}
	}
	return out
}

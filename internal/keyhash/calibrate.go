package keyhash

import (
	"fmt"
	"sync"
	"time"
)

// Calibration is the result of a diagnostic micro-benchmark: the
// fastest measured kind plus the measured single-thread hash rate of
// every backend this CPU can run. It informs no scan; KernelAuto is the
// rule in AutoKind.
type Calibration struct {
	// Kind is the fastest measured backend.
	Kind KernelKind
	// HashesPerSec maps every available backend to its measured
	// single-thread keyed-hash rate over a block of short values.
	HashesPerSec map[KernelKind]float64
}

var (
	calibOnce   sync.Once
	calibResult Calibration
)

// Calibrate micro-benchmarks every backend available on this machine
// and returns the fastest, caching the result for the process lifetime.
// The first caller pays a few milliseconds (about a millisecond per
// available backend); everyone after reads the cache. It is a
// diagnostic for 'wmtool kernels' and the benchmark harness: one short
// shot can rank backends differently from run to run, so no scan path
// calls it.
func Calibrate() Calibration {
	calibOnce.Do(func() { calibResult = runCalibration(time.Millisecond) })
	return calibResult
}

// runCalibration measures every available backend for roughly budget
// each and picks the fastest. Ties (unlikely) keep the earlier
// registry entry, i.e. the narrower kernel.
func runCalibration(budget time.Duration) Calibration {
	key := Key("keyhash-calibration-key")
	data, offs := calibrationBlock()
	rows := len(offs) - 1
	out := make([]Digest, rows)

	cal := Calibration{
		Kind:         KernelPortable,
		HashesPerSec: make(map[KernelKind]float64, len(registry)),
	}
	best := 0.0
	for _, d := range registry {
		if !d.available() {
			continue
		}
		kern := d.build(key)
		kern.HashColumn(data, offs, out) // warm up: page in code + tables
		hashed := 0
		start := time.Now()
		var elapsed time.Duration
		for elapsed < budget {
			kern.HashColumn(data, offs, out)
			hashed += rows
			elapsed = time.Since(start)
		}
		rate := float64(hashed) / elapsed.Seconds()
		cal.HashesPerSec[d.kind] = rate
		if rate > best {
			best = rate
			cal.Kind = d.kind
		}
	}
	return cal
}

// calibrationBlock lays out a block column of values shaped like real
// categorical scans: mostly short identifiers (single-block messages)
// with a sprinkle of longer ones, so multi-lane kernels are measured on
// the batch shape they will actually see.
func calibrationBlock() (data []byte, offs []int32) {
	offs = make([]int32, 1, 257)
	for i := 0; i < 256; i++ {
		if i%32 == 31 {
			// A two-block message: long enough that prefix+value+key
			// spills past one 64-byte SHA-256 block.
			data = fmt.Appendf(data, "calibration-long-value-%08d-%08d", i, i)
		} else {
			data = fmt.Appendf(data, "v%06d", i)
		}
		offs = append(offs, int32(len(data)))
	}
	return data, offs
}

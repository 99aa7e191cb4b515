package keyhash

import (
	"fmt"
	"sync"
	"time"
)

// Calibration is the result of the one-time startup micro-benchmark
// that KernelAuto uses to pick a backend: the chosen kind plus the
// measured single-thread hash rate of every backend this CPU can run.
type Calibration struct {
	// Kind is the fastest measured backend — what KernelAuto builds.
	Kind KernelKind
	// HashesPerSec maps every available backend to its measured
	// single-thread keyed-hash rate over a block of short values.
	HashesPerSec map[KernelKind]float64
}

// Rate returns the measured hash rate of the chosen backend.
func (c Calibration) Rate() float64 { return c.HashesPerSec[c.Kind] }

var (
	calibOnce   sync.Once
	calibResult Calibration
)

// Calibrate micro-benchmarks every backend available on this machine
// and returns the fastest, caching the result for the process lifetime.
// The first caller pays a few milliseconds (about a millisecond per
// available backend); everyone after reads the cache. NewKernel
// (KernelAuto) resolves through this, so the cost is paid at most once
// no matter how many scanners a process builds.
func Calibrate() Calibration {
	calibOnce.Do(func() { calibResult = runCalibration(time.Millisecond) })
	return calibResult
}

// AutoKind is the concrete backend KernelAuto resolves to.
func AutoKind() KernelKind { return Calibrate().Kind }

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

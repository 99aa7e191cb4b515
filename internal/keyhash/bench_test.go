package keyhash

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

func BenchmarkHashString(b *testing.B) {
	k := NewKey("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = HashString(k, "500123")
	}
}

// BenchmarkHasher tracks the prepared-context fast path per tier: the
// short one-shot buffer (typical key-attribute values), the wide
// one-shot buffer, and the streaming fallback.
func BenchmarkHasher(b *testing.B) {
	k := NewKey("bench")
	h, err := k.NewHasher()
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		value string
	}{
		{"short-6B", "500123"},
		{"oneshot-40B", strings.Repeat("v", 40)},
		{"stream-200B", strings.Repeat("v", 200)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = h.HashString(tc.value)
			}
		})
	}
}

// BenchmarkKernelHashColumn compares the batched kernels against the
// tuple-at-a-time Hasher loop over one block of realistic key values —
// the per-certificate unit of work of every batch audit — at four value
// lengths under a 32-byte NewKey key, all two-block messages: 6 bytes,
// a typical key value; 24 bytes, the last length whose value ends inside
// block 1; 32 bytes; and 47 bytes, the last length that fits two blocks.
func BenchmarkKernelHashColumn(b *testing.B) {
	k := NewKey("bench")
	for _, vc := range []struct {
		name   string
		format string
	}{
		{"6B", "%d"},
		{"24B", "%024d"},
		{"32B", "%032d"},
		{"47B", "%047d"},
	} {
		values := make([]string, 1024)
		for i := range values {
			values[i] = fmt.Sprintf(vc.format, 500000+i)
		}
		b.Run(vc.name, func(b *testing.B) { benchKernels(b, k, values) })
	}
}

// benchKernels runs the hasher loop and every available backend over
// values laid out as one block column, plus the WM_BENCH_KERNEL-pinned
// backend when set.
func benchKernels(b *testing.B, k Key, values []string) {
	data, offs := column(values)
	out := make([]Digest, len(values))
	h, err := k.NewHasher()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("hasher-loop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, v := range values {
				out[j] = h.HashString(v)
			}
		}
		reportHashRate(b, len(values))
	})
	for _, bk := range Backends() {
		if !bk.Available {
			b.Logf("kernel %q unavailable (needs %s)", bk.Kind, bk.Requires)
			continue
		}
		kern, err := k.NewKernel(bk.Kind)
		if err != nil {
			b.Fatalf("kernel %q: %v", bk.Kind, err)
		}
		b.Run(string(bk.Kind), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kern.HashColumn(data, offs, out)
			}
			reportHashRate(b, len(values))
		})
	}

	// CI pins a backend via WM_BENCH_KERNEL so two runs produce the same
	// sub-benchmark name ("pinned") and benchstat can diff them — e.g.
	// old = multibuffer, new = widest. Accepted values: any kernel kind,
	// "auto" (the KernelAuto rule's pick), or "widest" (most lanes available).
	if env := os.Getenv("WM_BENCH_KERNEL"); env != "" {
		kind, err := resolveBenchKernel(env)
		if err != nil {
			b.Fatal(err)
		}
		kern, err := k.NewKernel(kind)
		if err != nil {
			b.Fatalf("WM_BENCH_KERNEL=%s: %v", env, err)
		}
		b.Run("pinned", func(b *testing.B) {
			b.ReportAllocs()
			b.Logf("WM_BENCH_KERNEL=%s -> kernel %q", env, kind)
			for i := 0; i < b.N; i++ {
				kern.HashColumn(data, offs, out)
			}
			reportHashRate(b, len(values))
		})
	}
}

// resolveBenchKernel maps a WM_BENCH_KERNEL value to a concrete kind.
func resolveBenchKernel(env string) (KernelKind, error) {
	switch env {
	case "auto":
		return AutoKind(), nil
	case "widest":
		kind, lanes := KernelPortable, 1
		for _, bk := range Backends() {
			if bk.Available && bk.Lanes > lanes {
				kind, lanes = bk.Kind, bk.Lanes
			}
		}
		return kind, nil
	default:
		return KernelKind(env), nil
	}
}

func reportHashRate(b *testing.B, n int) {
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mhash/s")
}

func BenchmarkFitKey(b *testing.B) {
	k := NewKey("bench")
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = strconv.Itoa(500000 + i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = FitKey(k, keys[i&1023], 65)
	}
}

func BenchmarkPairIndex(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = PairIndex(uint64(i)*2654435761, 1000, uint64(i)&1)
	}
}

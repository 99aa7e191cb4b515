package pipeline

import (
	"context"
	"errors"
	"io"
	"sync/atomic"
	"testing"

	"repro/internal/ecc"
	"repro/internal/keyhash"
	"repro/internal/mark"
	"repro/internal/relation"
)

// gatedReader yields blocks of synthetic rows and, once gateAt rows have
// been handed out, cancels the supplied cancel func — simulating a
// client disconnect or job cancellation arriving mid-stream. It counts
// every row handed out so tests can assert the pipeline stopped pulling
// instead of draining all total rows.
type gatedReader struct {
	schema  *relation.Schema
	total   int
	gateAt  int
	cancel  context.CancelFunc
	served  atomic.Int64
	tupleFn func(i int) relation.Tuple
}

func (g *gatedReader) Schema() *relation.Schema { return g.schema }

func (g *gatedReader) ReadBlock(b *relation.Block, maxRows int) (int, error) {
	b.Reset(g.schema)
	for b.Rows() < maxRows {
		n := int(g.served.Load()) + 1
		if n > g.total {
			break
		}
		g.served.Store(int64(n))
		if n == g.gateAt && g.cancel != nil {
			g.cancel()
		}
		if err := b.AppendTuple(g.tupleFn(n)); err != nil {
			return b.Rows(), err
		}
	}
	if b.Rows() == 0 {
		return 0, io.EOF
	}
	return b.Rows(), nil
}

func cancelTestScanner(t *testing.T, schema *relation.Schema) *mark.Scanner {
	t.Helper()
	dom, err := relation.NewDomain([]string{"0", "1", "2", "3"})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := mark.NewStreamScanner(schema, 4, mark.Options{
		Attr:              "Item_Nbr",
		K1:                keyhash.NewKey("ctx-k1"),
		K2:                keyhash.NewKey("ctx-k2"),
		E:                 2,
		Domain:            dom,
		BandwidthOverride: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func cancelTestSchema(t *testing.T) *relation.Schema {
	t.Helper()
	schema, err := relation.ParseSchemaSpec("Visit_Nbr:int!key, Item_Nbr:int:categorical")
	if err != nil {
		t.Fatal(err)
	}
	return schema
}

// TestScanManyCancelledStopsBeforeDraining is the acceptance property for
// context threading on the streaming path: when the context is cancelled
// mid-stream, ScanMany returns ctx.Err() and stops pulling rows well
// before the reader is drained.
func TestScanManyCancelledStopsBeforeDraining(t *testing.T) {
	schema := cancelTestSchema(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const total = 500_000
	src := &gatedReader{
		schema: schema,
		total:  total,
		gateAt: 10_000,
		cancel: cancel,
		tupleFn: func(i int) relation.Tuple {
			return relation.Tuple{itoa(i), "1"}
		},
	}
	_, err := ScanMany(ctx, src, []*mark.Scanner{cancelTestScanner(t, schema)},
		Config{Workers: 2, ChunkRows: 512})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ScanMany after cancel: err = %v, want context.Canceled", err)
	}
	if served := src.served.Load(); served >= total {
		t.Fatalf("reader was drained (%d rows) despite cancellation", served)
	} else if served > 40_000 {
		t.Errorf("pipeline pulled %d rows after a cancel at 10k — cancellation too lazy", served)
	}
}

// TestDetectCancelledBeforeStart asserts the materialized chunked path
// refuses to start under an already-cancelled context.
func TestDetectCancelledBeforeStart(t *testing.T) {
	schema := cancelTestSchema(t)
	r := relation.New(schema)
	for i := 0; i < 4096; i++ {
		if err := r.Append(relation.Tuple{itoa(i), "1"}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dom, _ := relation.NewDomain([]string{"0", "1", "2", "3"})
	opts := mark.Options{
		Attr:   "Item_Nbr",
		K1:     keyhash.NewKey("ctx-k1"),
		K2:     keyhash.NewKey("ctx-k2"),
		E:      2,
		Domain: dom,
	}
	if _, err := Detect(ctx, r, 4, opts, Config{Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Detect under cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := Embed(ctx, r, ecc.MustParseBits("1011"), opts, Config{Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Embed under cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestPoolCancelMidFlight cancels while pool workers are mid-pass and
// asserts the run reports ctx.Err() rather than a partial result.
func TestPoolCancelMidFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var processed atomic.Int64
	chunks := partition(100_000, 100) // 1000 chunks
	err := runPool(ctx, Config{}, 4, nil, func(p *pool) error {
		for _, c := range chunks {
			j := p.next()
			j.lo, j.hi = c.Lo, c.Hi
			if !p.emit(j) {
				return nil
			}
		}
		return nil
	}, func(*pool, *job, *mark.BlockScratch) error {
		if processed.Add(1) == 5 {
			cancel()
		}
		return nil
	}, func(*job) {})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("runPool after cancel: err = %v, want context.Canceled", err)
	}
	if n := processed.Load(); n >= 1000 {
		t.Fatalf("all %d chunks processed despite cancellation", n)
	}
}

// itoa avoids pulling strconv into every call site above.
func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}

// TestSequentialFallbacksCancelMidPass covers the order-dependent
// fallbacks (workers == 1, quality assessor): they run on the calling
// goroutine but must still observe cancellation between chunks instead
// of burning to the end of the relation.
func TestSequentialFallbacksCancelMidPass(t *testing.T) {
	schema := cancelTestSchema(t)
	r := relation.New(schema)
	for i := 0; i < 50_000; i++ {
		if err := r.Append(relation.Tuple{itoa(i), "1"}); err != nil {
			t.Fatal(err)
		}
	}
	dom, _ := relation.NewDomain([]string{"0", "1", "2", "3"})
	baseOpts := mark.Options{
		Attr:   "Item_Nbr",
		K1:     keyhash.NewKey("seq-k1"),
		K2:     keyhash.NewKey("seq-k2"),
		E:      2,
		Domain: dom,
	}

	// Detect, workers == 1: cancel from a fit-row callback is impossible
	// (Scan has no hooks), so cancel from a timer-free side channel: a
	// context cancelled before the second chunk begins.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { cancel(); close(done) }()
	<-done
	if _, err := Detect(ctx, r, 4, baseOpts, Config{Workers: 1, ChunkRows: 1024}); !errors.Is(err, context.Canceled) {
		t.Fatalf("sequential Detect after cancel: err = %v, want context.Canceled", err)
	}

	// Embed with an OnAlter hook (order-dependent → sequential walk):
	// the hook cancels mid-pass; the walk must stop at the next chunk
	// boundary rather than finishing all 50k rows.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var alters int
	opts := baseOpts
	opts.OnAlter = func(row int) {
		if alters++; alters == 1 {
			cancel2()
		}
	}
	_, err := Embed(ctx2, r, ecc.MustParseBits("1011"), opts, Config{Workers: 4, ChunkRows: 1024})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sequential Embed after cancel: err = %v, want context.Canceled", err)
	}
	if alters > 2048 {
		t.Fatalf("embedding altered %d rows after an immediate cancel — walk too lazy", alters)
	}
}

package pipeline

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mark"
	"repro/internal/relation"
)

// The ordered pool runs every pass: Embed, Detect, DetectFit and
// ScanMany. A producer goroutine yields the pass's jobs in order — row
// ranges of a relation, or groups of blocks read from a stream — the
// workers run them, each holding one pooled BlockScratch for its
// lifetime, and the calling goroutine collects the finished jobs in the
// order they were produced. Every per-tuple decision depends only on
// the tuple's own key, so folding the results in that order gives what
// one in-order walk gives, at any worker count. Job shells and part
// tallies cycle through per-pass free lists (part groups go back to a
// process-wide pool when the pass ends), so a warm pass allocates
// nothing per row.

// job is one unit of a pass and the slots its result comes back in.
type job struct {
	lo, hi int               // a row range of a relation pass
	blks   []*relation.Block // a block group of a stream pass
	parts  *partGroup        // one part tally per scanner (detection)
	fit    *[]int            // the range's fit rows (DetectFit)
	cs     mark.ChunkStats   // the range's embedding result (Embed)
	err    error
	done   chan struct{}
}

// pool is one pass's run of the ordered pool.
type pool struct {
	ctx       context.Context // the pass's context, cancelled at the first failed job
	cfg       Config
	scanners  []*mark.Scanner // one part tally per scanner in each group
	jobs      chan *job       // to the workers
	ordered   chan *job       // to the collector, in production order
	free      chan *job       // collected shells
	freeParts chan *partGroup // collected part groups
}

// runPool runs one pass on workers goroutines. produce emits the jobs
// in order through p.emit and returns the error of its source; work
// runs one job on a worker's scratch; collect folds a finished job into
// the pass result, in production order, until a job fails. The first
// failed job stops the pass. The call returns ctx's error if ctx was
// cancelled, else the first job error in production order, else
// produce's. Every emitted job is collected and recycled, with its
// blocks, part group and fit rows, on every path.
func runPool(ctx context.Context, cfg Config, workers int, scanners []*mark.Scanner,
	produce func(p *pool) error, work func(p *pool, j *job, bs *mark.BlockScratch) error, collect func(j *job)) error {
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	p := &pool{
		ctx: pctx, cfg: cfg, scanners: scanners,
		jobs: make(chan *job, workers), ordered: make(chan *job, workers),
		free: make(chan *job, 2*workers), freeParts: make(chan *partGroup, 2*workers),
	}
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.worker(work)
		}()
	}
	var produceErr error
	go func() {
		defer close(p.ordered)
		defer close(p.jobs)
		produceErr = produce(p)
	}()

	var firstErr error
	for j := range p.ordered {
		<-j.done
		switch {
		case firstErr != nil:
		case j.err != nil:
			firstErr = j.err
			cancel()
		case cfg.Phases != nil:
			start := time.Now()
			collect(j)
			cfg.Phases.AddMerge(time.Since(start))
		default:
			collect(j)
		}
		p.recycle(j)
	}
	wg.Wait()
	for drained := false; !drained; {
		select {
		case g := <-p.freeParts:
			putGroup(g)
		default:
			drained = true
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if firstErr != nil {
		return firstErr
	}
	return produceErr
}

// worker runs jobs until the producer is done. Once it has failed, or
// seen the pass cancelled, it runs nothing more: every later job it
// takes carries the same error, so at one worker no job runs past the
// first failure. Stream blocks go back to the block pool as soon as the
// job is scanned.
func (p *pool) worker(work func(p *pool, j *job, bs *mark.BlockScratch) error) {
	bs := getScratch()
	defer putScratch(bs)
	if p.cfg.Phases != nil {
		bs.EnableHashTiming()
	}
	var err error
	for j := range p.jobs {
		if err == nil {
			err = p.ctx.Err()
		}
		if err == nil && p.cfg.Phases == nil {
			err = work(p, j, bs)
		} else if err == nil {
			// Phase clocks at job granularity: the scratch meters kernel
			// time, the rest of the job is the fitness/vote walk.
			start := time.Now()
			err = work(p, j, bs)
			hash := time.Duration(bs.HashNanos())
			p.cfg.Phases.AddHash(hash)
			p.cfg.Phases.AddVote(time.Since(start) - hash)
		}
		j.err = err
		putBlocks(j.blks)
		j.blks = j.blks[:0]
		j.done <- struct{}{}
	}
}

// next returns an empty job shell, recycled when one is free.
func (p *pool) next() *job {
	select {
	case j := <-p.free:
		return j
	default:
		return &job{done: make(chan struct{}, 1)}
	}
}

// emit hands j to the workers and then to the collector. It reports
// false, leaving j with the caller, once the pass is stopping.
func (p *pool) emit(j *job) bool {
	select {
	case p.jobs <- j:
	case <-p.ctx.Done():
		return false
	}
	p.ordered <- j
	return true
}

// parts returns an empty part group for the pass's scanners, recycled
// when one is free.
func (p *pool) parts() *partGroup {
	select {
	case g := <-p.freeParts:
		for _, t := range g.tallies {
			t.Reset()
		}
		return g
	default:
		return getGroup(p.scanners)
	}
}

// recycle returns a collected job's part group and fit rows and frees
// its shell.
func (p *pool) recycle(j *job) {
	if j.parts != nil {
		select {
		case p.freeParts <- j.parts:
		default:
			putGroup(j.parts)
		}
	}
	if j.fit != nil {
		putRows(j.fit)
	}
	j.parts, j.fit, j.cs, j.err = nil, nil, mark.ChunkStats{}, nil
	select {
	case p.free <- j:
	default:
	}
}

func putBlocks(blks []*relation.Block) {
	for _, blk := range blks {
		relation.PutBlock(blk)
	}
}

// partGroup is one part tally per scanner of a pass. Groups are pooled
// across passes as a unit, so a repeated scanner set — the same
// catalog audited again — gets back tallies of exactly its bandwidths;
// a different set reuses whatever arrays are large enough
// (Scanner.ReuseTally). A catalog audit's group is bandwidth ×
// certificates, so allocating groups afresh on every call spent most of
// the bytes the call allocated. Totals are never pooled: they are the
// caller's result.
type partGroup struct {
	tallies []*mark.Tally
}

var partPool sync.Pool // of *partGroup

// groupsOut counts groups taken from getGroup and not yet handed back
// through putGroup; every pass returns it to where it started, which
// the pool tests check.
var groupsOut atomic.Int64

// getGroup returns a group of empty tallies, one per scanner, reusing a
// pooled group.
func getGroup(scanners []*mark.Scanner) *partGroup {
	groupsOut.Add(1)
	g, _ := partPool.Get().(*partGroup)
	if g == nil {
		g = new(partGroup)
	}
	if c := cap(g.tallies); c < len(scanners) {
		g.tallies = slices.Grow(g.tallies[:c], len(scanners)-c)
	}
	// Tallies past len(scanners) stay in the backing array for the
	// next, larger set.
	g.tallies = g.tallies[:len(scanners)]
	for i, sc := range scanners {
		g.tallies[i] = sc.ReuseTally(g.tallies[i])
	}
	return g
}

// putGroup hands a group back to the pool.
func putGroup(g *partGroup) {
	groupsOut.Add(-1)
	partPool.Put(g)
}

package pipeline

import "sync/atomic"

// Process-wide scan-engine counters, ticked once per block from
// Config.report. They back the wm_scan_tuples_total and
// wm_scan_blocks_total sampled families in /metrics; keeping them here
// (rather than plumbing a registry through the hot path) means the
// block loop pays exactly two uncontended-in-practice atomic adds per
// block whether or not a server is scraping.
var (
	statTuples atomic.Uint64
	statBlocks atomic.Uint64
)

// Stats reports the cumulative number of tuples and scan blocks that
// this process's pipelines have pushed through scan and embed passes.
func Stats() (tuples, blocks uint64) {
	return statTuples.Load(), statBlocks.Load()
}

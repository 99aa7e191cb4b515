//go:build race

package pipeline

// raceEnabled reports a race-detector build, where sync.Pool drops a
// random share of the items put into it, so pool-retention tests cannot
// hold.
const raceEnabled = true

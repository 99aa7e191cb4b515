//go:build race

package relation

// raceEnabled reports a race-detector build, where allocation counts
// vary from run to run.
const raceEnabled = true

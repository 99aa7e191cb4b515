//go:build race

package mark

// raceEnabled reports a race-detector build, where allocation counts of
// pool-backed paths vary from run to run.
const raceEnabled = true

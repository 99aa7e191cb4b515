//go:build !race

package mark

const raceEnabled = false

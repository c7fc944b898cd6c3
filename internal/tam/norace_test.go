//go:build !race

package tam

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = false

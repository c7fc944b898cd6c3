//go:build race

package partition

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = true

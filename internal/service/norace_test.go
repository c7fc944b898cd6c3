//go:build !race

package service

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = false

//go:build race

package dataset

// raceEnabled reports a race-detector build, whose instrumentation adds
// allocations of its own, so allocation ceilings do not apply.
const raceEnabled = true

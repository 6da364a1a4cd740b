//go:build race

package pathrank

// raceEnabled tells allocation-count tests that the race detector makes
// sync.Pool drop items at random, so pooled scratch is re-allocated.
const raceEnabled = true

//go:build race

package allocpin

// Race reports a race-detector build.
const Race = true

//go:build race

package main

// raceEnabled tells the smoke test that the race detector is slowing
// everything several times over, so its time budget does not apply.
const raceEnabled = true

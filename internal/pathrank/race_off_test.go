//go:build !race

package pathrank

const raceEnabled = false

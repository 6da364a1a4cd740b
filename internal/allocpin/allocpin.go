// Package allocpin is the one rule by which tests pin what a hot path
// allocates. On fixed inputs, one warm-up call fills the pools; then one
// call is measured with the collector off and GOMAXPROCS 1, so no
// collection empties a sync.Pool and every pooled object comes back from
// the one P's cache. Under that rule the counts repeat exactly, so a pin
// compares them exactly, and a failing pin's message gives the new counts.
// Pins skip under the race detector, which allocates on its own.
package allocpin

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// Count is what one call allocates: heap objects and their size-class
// bytes (runtime.MemStats' Mallocs and TotalAlloc). A Ceiling count bounds
// the call instead of pinning it, for a path whose counts now and then
// differ between runs, such as one whose count takes in other goroutines'
// allocations.
type Count struct {
	Allocs, Bytes uint64
	Ceiling       bool
}

// Measure runs f twice, with the collector off and GOMAXPROCS 1, and
// returns what the second call allocated.
func Measure(f func()) Count {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return Count{Allocs: after.Mallocs - before.Mallocs, Bytes: after.TotalAlloc - before.TotalAlloc}
}

// Pin fails tb unless one call of f allocates exactly want, or at most
// want if it is a Ceiling, and skips tb under the race detector.
func Pin(tb testing.TB, want Count, f func()) {
	tb.Helper()
	if Race {
		tb.Skip("the race detector allocates on its own")
	}
	got := Measure(f)
	if got.Allocs == want.Allocs && got.Bytes == want.Bytes ||
		want.Ceiling && got.Allocs <= want.Allocs && got.Bytes <= want.Bytes {
		return
	}
	tb.Errorf("allocates %d objects, %d bytes a run; want %+v", got.Allocs, got.Bytes, want)
}

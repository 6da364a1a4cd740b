package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForRunsEveryIndexOnce covers no work, fewer items than workers, and
// more, at one worker and at several.
func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 3} {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		for _, n := range []int{0, 2, 100} {
			counts := make([]atomic.Int32, n)
			For(n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("GOMAXPROCS %d, n %d: index %d ran %d times", procs, n, i, c)
				}
			}
		}
	}
}

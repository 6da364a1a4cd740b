package pathrank

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelFor runs f(i) for i in [0, n), fanning out across at most
// GOMAXPROCS workers. Scoring is read-only on the model and every caller
// writes disjoint result indices, so the output is bitwise identical for
// any worker count. With one worker it degenerates to a plain loop.
func parallelFor(n int, f func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

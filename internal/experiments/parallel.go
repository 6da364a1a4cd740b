package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// runRows evaluates f(i) for every row index in [0, n) across at most
// GOMAXPROCS workers and returns the rows in index order. Every row trains
// with its own deterministic seed and writes to its own result slot, so a
// table is bitwise identical for any worker count. The first error wins and
// is returned after all workers drain.
func runRows(n int, f func(i int) (Row, error)) ([]Row, error) {
	rows := make([]Row, n)
	workers := min(runtime.GOMAXPROCS(0), n)
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool // fail fast: skip unstarted rows after an error
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				rows[i], errs[i] = f(i)
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

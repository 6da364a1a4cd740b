package serve

import (
	"context"
	"errors"
	"sync"
)

// flightGroup collapses duplicate in-flight computations: while one
// goroutine computes the result for a key, later callers with the same key
// block and share its result instead of recomputing. This is the standard
// singleflight pattern, specialized to rank queries so the module stays
// dependency-free. The shared value is a ranking's rendered paths array,
// the bytes every response carrying it splices in.
type flightGroup struct {
	mu sync.Mutex
	m  map[queryKey]*flightCall
}

type flightCall struct {
	done chan struct{} // closed when val/err are final
	val  []byte
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[queryKey]*flightCall)}
}

// do invokes fn once per concurrent set of callers with the same key.
// shared reports whether the caller received (or abandoned waiting for)
// another goroutine's computation. A waiter honors its own context: when
// ctx expires before the leader finishes, the waiter returns ctx's error
// immediately instead of outliving its deadline on someone else's
// computation — the leader keeps running for the callers still waiting.
// A panic in fn is re-raised in the leader after the call is unregistered
// and waiters are released (they observe errFlightPanic), so one panicking
// query cannot poison its key forever.
func (g *flightGroup) do(ctx context.Context, key queryKey, fn func() ([]byte, error)) (val []byte, err error, shared bool) {
	g.mu.Lock()
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, c.err, true
		case <-ctx.Done():
			return nil, ctx.Err(), true
		}
	}
	c := &flightCall{done: make(chan struct{})}
	c.err = errFlightPanic // overwritten on normal return
	g.m[key] = c
	g.mu.Unlock()

	defer func() {
		// Unregister before releasing the waiters: a caller that arrives
		// once a waiter has returned must start a new call, not join this
		// finished one (after a panic it would read errFlightPanic).
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	return c.val, c.err, false
}

// errFlightPanic is what waiters of a panicked computation observe; the
// leader's own goroutine re-raises the panic (net/http recovers it and
// kills only that connection).
var errFlightPanic = errors.New("serve: in-flight computation panicked")

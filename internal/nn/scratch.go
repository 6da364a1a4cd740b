package nn

// arena is a bump allocator for scratch vectors. One forward/backward pass
// over a sample allocates all of its per-timestep gate vectors and gradient
// temporaries from an arena; releasing the pass resets the offset so the
// next sample reuses the same slab instead of producing garbage. Vectors
// handed out before a slab grows keep referencing the old slab, so growth
// mid-pass is safe. A grown slab keeps the pass's offset, so it is sized
// for the whole pass so far: after one pass the slab holds all of it.
type arena struct {
	buf []float64
	off int
}

func (a *arena) reset() { a.off = 0 }

// vec returns a zeroed length-n vector carved from the arena.
func (a *arena) vec(n int) Vec {
	if a.off+n > len(a.buf) {
		size := 2 * len(a.buf)
		if size < a.off+n {
			size = a.off + n
		}
		if size < 1024 {
			size = 1024
		}
		a.buf = make([]float64, size)
	}
	v := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	for i := range v {
		v[i] = 0
	}
	return v
}

// growVecSlice returns s resized to length n, reusing capacity.
func growVecSlice(s []Vec, n int) []Vec {
	if cap(s) < n {
		return make([]Vec, n)
	}
	return s[:n]
}

// Scratch is an arena-backed workspace for batched inference: the packed
// matrices of a fused scoring pass are carved from one slab that Reset
// rewinds, so a pooled Scratch makes the whole pass allocation-free in
// steady state. Vectors and matrices handed out survive a mid-pass slab
// growth (they keep referencing the old slab) but are invalidated by
// Reset. A Scratch is single-goroutine; pool one per worker.
type Scratch struct {
	ar arena
}

// Reset rewinds the arena; memory handed out earlier is reused.
func (s *Scratch) Reset() { s.ar.reset() }

// Vec returns a zeroed length-n vector carved from the arena.
func (s *Scratch) Vec(n int) Vec { return s.ar.vec(n) }

// Mat returns a zeroed rows x cols packed matrix carved from the arena.
func (s *Scratch) Mat(rows, cols int) Mat {
	return Mat{Rows: rows, Cols: cols, Data: s.ar.vec(rows * cols)}
}

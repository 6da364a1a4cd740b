package main

import (
	"encoding/json"
	"sort"
	"time"
)

// Speed calibration. A frozen reference kernel runs next to the measured
// work, and every timing is multiplied by nominal / (the kernel's time
// measured next to it), so a neighbour slowing the machine moves parent and
// change alike and cancels.
//
// The kernel has two parts, because the two kinds of work the served system
// does slow down by different amounts when the machine is disturbed (on the
// box this was defined on, a noisy spell costs JSON-style code 1.8x and
// search-style code 1.4x):
//
//   - work: a heap Dijkstra over a private grid, then a dense float64
//     multiply-add over 4 MiB: pointer chasing and arithmetic over a working
//     set that does not fit the private caches, like candidate generation
//     and scoring. It calls no code outside this file.
//   - wire: encoding/json round trips of a private response-shaped document:
//     branchy, allocating, cache-resident, like the decode → cache hit →
//     encode path. It calls only the standard library.
//
// A request answered from the result cache is calibrated against the wire
// part, everything else (and set-up) against the work part. Neither part
// calls repository code, so no later change to the repository can move them.

// The nominal values are what the two parts took on the box this benchmark
// was defined on in a calm spell, interleaved with a workload (2 vCPU Xeon
// 2.1 GHz, go1.24). Changing them rescales every calibrated metric: treat
// them, and the kernel, as frozen.
const (
	nominalWorkMs = 1.30
	nominalWireMs = 0.32
)

const (
	refGrid     = 96                // Dijkstra grid side
	refCells    = refGrid * refGrid // 9216 vertices
	refDense    = 1 << 18           // float64s per dense array (2 MiB each, two arrays)
	refInf      = float64(1 << 60)
	refWireReps = 12 // JSON round trips per run
)

type refKernel struct {
	wRight, wDown []float64 // edge weights to the right/lower neighbour
	dist          []float64
	heapV         []int32
	heapD         []float64
	a, b          []float64
	docBytes      []byte
	sink          float64
}

// refDoc is a private stand-in for a ranking response.
type refDoc struct {
	Src, Dst int64
	Cached   bool
	Paths    []refPath
}

type refPath struct {
	Rank           int
	Score, LengthM float64
	Hops           int
	Vertices       []int64
}

func newRefKernel() *refKernel {
	k := &refKernel{
		wRight: make([]float64, refCells),
		wDown:  make([]float64, refCells),
		dist:   make([]float64, refCells),
		heapV:  make([]int32, 0, 4*refCells),
		heapD:  make([]float64, 0, 4*refCells),
		a:      make([]float64, refDense),
		b:      make([]float64, refDense),
	}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() float64 { // splitmix64, private so math/rand changes cannot move it
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return float64((z^(z>>31))>>11) / (1 << 53)
	}
	for i := range k.wRight {
		k.wRight[i] = 1 + next()
		k.wDown[i] = 1 + next()
	}
	for i := range k.a {
		k.a[i] = next()
		k.b[i] = next()
	}
	doc := refDoc{Src: 17, Dst: 2931}
	for p := 0; p < 5; p++ {
		rp := refPath{Rank: p + 1, Score: next(), LengthM: 3000 * next(), Hops: 12}
		for v := 0; v < 13; v++ {
			rp.Vertices = append(rp.Vertices, int64(3000*next()))
		}
		doc.Paths = append(doc.Paths, rp)
	}
	var err error
	if k.docBytes, err = json.Marshal(doc); err != nil {
		panic(err) // a struct of numbers always marshals
	}
	for i := 0; i < 20; i++ { // page the arrays in
		k.run()
	}
	return k
}

func (k *refKernel) push(v int32, d float64) {
	k.heapV = append(k.heapV, v)
	k.heapD = append(k.heapD, d)
	i := len(k.heapD) - 1
	for i > 0 {
		p := (i - 1) / 2
		if k.heapD[p] <= k.heapD[i] {
			break
		}
		k.heapD[p], k.heapD[i] = k.heapD[i], k.heapD[p]
		k.heapV[p], k.heapV[i] = k.heapV[i], k.heapV[p]
		i = p
	}
}

func (k *refKernel) pop() (int32, float64) {
	v, d := k.heapV[0], k.heapD[0]
	n := len(k.heapD) - 1
	k.heapV[0], k.heapD[0] = k.heapV[n], k.heapD[n]
	k.heapV, k.heapD = k.heapV[:n], k.heapD[:n]
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && k.heapD[l] < k.heapD[m] {
			m = l
		}
		if r < n && k.heapD[r] < k.heapD[m] {
			m = r
		}
		if m == i {
			break
		}
		k.heapD[m], k.heapD[i] = k.heapD[i], k.heapD[m]
		k.heapV[m], k.heapV[i] = k.heapV[i], k.heapV[m]
		i = m
	}
	return v, d
}

// run does one fixed unit of each part and returns how long each took.
func (k *refKernel) run() (work, wire time.Duration) {
	start := time.Now()
	for i := range k.dist {
		k.dist[i] = refInf
	}
	k.heapV, k.heapD = k.heapV[:0], k.heapD[:0]
	k.dist[0] = 0
	k.push(0, 0)
	relax := func(v int32, d float64) {
		if d < k.dist[v] {
			k.dist[v] = d
			k.push(v, d)
		}
	}
	for len(k.heapD) > 0 {
		v, d := k.pop()
		if d > k.dist[v] {
			continue
		}
		r, c := int(v)/refGrid, int(v)%refGrid
		if c+1 < refGrid {
			relax(v+1, d+k.wRight[v])
		}
		if c > 0 {
			relax(v-1, d+k.wRight[v-1])
		}
		if r+1 < refGrid {
			relax(v+refGrid, d+k.wDown[v])
		}
		if r > 0 {
			relax(v-refGrid, d+k.wDown[v-refGrid])
		}
	}
	s := k.dist[refCells-1]
	for i := range k.a {
		s += k.a[i] * k.b[i]
	}
	k.sink += s
	mid := time.Now()
	for i := 0; i < refWireReps; i++ {
		var d refDoc
		if err := json.Unmarshal(k.docBytes, &d); err != nil {
			panic(err) // the bytes are this kernel's own Marshal output
		}
		b, err := json.Marshal(d)
		if err != nil {
			panic(err)
		}
		k.sink += float64(len(b))
	}
	return mid.Sub(start), time.Since(mid)
}

// refSample is one reference measurement, taken just before request At of
// the sequence it is interleaved with.
type refSample struct {
	At     int
	WorkMs float64
	WireMs float64
}

// sample measures the machine once. The kernel runs twice and the second run
// counts: the first refills the caches the served code has just evicted, and
// how much it finds evicted differs from run to run of the benchmark, which
// is not a property of the machine.
func (k *refKernel) sample(at int) refSample {
	k.run()
	work, wire := k.run()
	return refSample{At: at, WorkMs: float64(work) / 1e6, WireMs: float64(wire) / 1e6}
}

// calibrator turns raw timings into calibrated ones. The local reference
// time at a position is the median of the three samples nearest to it, so
// one preempted kernel run cannot skew its neighbours.
type calibrator struct {
	samples []refSample // ascending At
}

// nearest returns the three samples nearest to position at (all of them when
// there are at most three).
func (c *calibrator) nearest(at int) []refSample {
	n := len(c.samples)
	if n <= 3 {
		return c.samples
	}
	// The first sample at or after the position, then of the windows of
	// three around it the one whose farthest member is nearest.
	j := sort.Search(n, func(i int) bool { return c.samples[i].At >= at })
	lo := j - 2
	if lo < 0 {
		lo = 0
	}
	best, bestSpan := lo, -1
	for s := lo; s <= j && s+3 <= n; s++ {
		span := max(absInt(c.samples[s].At-at), absInt(c.samples[s+2].At-at))
		if bestSpan < 0 || span < bestSpan {
			best, bestSpan = s, span
		}
	}
	return c.samples[best : best+3]
}

// factor is what a raw timing taken at the position is multiplied by: wire
// selects the part of the kernel it is calibrated against.
func (c *calibrator) factor(at int, wire bool) float64 {
	near := c.nearest(at)
	if len(near) == 0 {
		return 1
	}
	var ms [3]float64
	for i, s := range near {
		ms[i] = s.WorkMs
		if wire {
			ms[i] = s.WireMs
		}
	}
	local := ms[0]
	switch len(near) {
	case 2:
		local = (ms[0] + ms[1]) / 2
	case 3:
		local = ms[0] + ms[1] + ms[2] - min(ms[0], ms[1], ms[2]) - max(ms[0], ms[1], ms[2])
	}
	if wire {
		return nominalWireMs / local
	}
	return nominalWorkMs / local
}

func absInt(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

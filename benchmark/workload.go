package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"pathrank/internal/api"
)

// workload is one traffic mix; BENCHMARK.json records why each was chosen.
// Counts are per second of --seconds, so one
// --seconds value sizes every workload to about that long on the box the
// rates were measured on; the work itself is a fixed request count, the
// same on every run with the same seed.
type workload struct {
	Name string
	// PerSecond is the number of requests generated per second of --seconds.
	PerSecond float64
	// QueriesPerRequest is 1 for single queries, the batch size otherwise.
	QueriesPerRequest int
	// CacheSize is passed to serve.Config (0 default cache, -1 off).
	CacheSize int
	Sharded   bool
	// RefEvery is how many requests pass between two reference-kernel
	// runs, chosen so they are about 100 ms apart.
	RefEvery int
	// Replay is how many requests the traced replay repeats.
	Replay int
	// OracleEvery is the stride of the responses kept and compared with the
	// plain pipeline after the timed phase.
	OracleEvery int
}

var workloads = []workload{
	{
		Name:      "crosstown_uncached",
		PerSecond: 190, QueriesPerRequest: 1, CacheSize: -1, RefEvery: 19, Replay: 200, OracleEvery: 50,
	},
	{
		Name:      "local_batch_k32",
		PerSecond: 84, QueriesPerRequest: 8, CacheSize: -1, RefEvery: 8, Replay: 120, OracleEvery: 50,
	},
	{
		Name:      "zipf_cached",
		PerSecond: 44000, QueriesPerRequest: 1, CacheSize: 0, RefEvery: 4400, Replay: 1000, OracleEvery: 2000,
	},
	{
		Name:      "sharded_mix",
		PerSecond: 660, QueriesPerRequest: 1, CacheSize: -1, Sharded: true, RefEvery: 66, Replay: 600, OracleEvery: 50,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	zipfPool     = 8192
	zipfS        = 1.3
	zipfWarm     = 4096 // pairs warmed: what the default cache can hold
	zipfRankSeed = 20200420
	crossEvery   = 10 // of every 10 sharded requests, 3 are cross-shard
)

// plan is the generated input of one run: the request bodies in sending
// order. Bodies are shared between equal requests.
type plan struct {
	Requests []*request
	// Warm is sent once, untimed, before the timed phase.
	Warm []*request
	Hash string // of the request stream, printed in every report
}

type request struct {
	Body    []byte
	Queries []api.RankQuery
	Batch   bool
	// Kind groups the requests of a plan that ask for the same amount of
	// work: the trip length in grid hops, plus crossKind when origin and
	// destination lie on different shards. It is a property of the generated
	// input, so the kinds and their counts are the same on every run of a
	// seed. A batch holds every trip length of its workload and has kind 0.
	Kind int
}

// crossKind is added to the Kind of a cross-shard request.
const crossKind = 100

func newRequest(queries []api.RankQuery, batch bool, kind int) *request {
	var wire api.RankRequest
	if batch {
		wire.Queries = queries
	} else {
		wire.RankQuery = queries[0]
	}
	body, err := json.Marshal(wire)
	if err != nil {
		panic(err) // plain structs of numbers and strings always marshal
	}
	return &request{Body: body, Queries: queries, Batch: batch, Kind: kind}
}

// vertexAt is the ID of grid cell (r, c): roadnet.Generate numbers the
// grid row-major before it adds the ring.
func vertexAt(r, c int) int64 { return int64(r*gridSide + c) }

// odPair draws a pair exactly hops grid steps apart: the split between
// rows and columns, the direction and the position come from rng.
func odPair(rng *rand.Rand, hops int) (src, dst int64) {
	for {
		lo, hi := hops-(gridSide-1), gridSide-1
		if lo < 0 {
			lo = 0
		}
		if hi > hops {
			hi = hops
		}
		dr := lo + rng.Intn(hi-lo+1)
		dc := hops - dr
		if rng.Intn(2) == 0 {
			dr = -dr
		}
		if rng.Intn(2) == 0 {
			dc = -dc
		}
		r0, c0 := rng.Intn(gridSide), rng.Intn(gridSide)
		r1, c1 := r0+dr, c0+dc
		if r1 < 0 || r1 >= gridSide || c1 < 0 || c1 >= gridSide {
			continue
		}
		return vertexAt(r0, c0), vertexAt(r1, c1)
	}
}

// spread maps i to lo..hi so that every window of hi-lo+1 consecutive i
// covers every value once: the mix of trip lengths is the same for every
// seed and every stretch of the run, and only the places differ. That
// keeps seed-to-seed differences in the medians small.
func spread(i, lo, hi int) int {
	n := hi - lo + 1
	step := 1
	for s := n/2 + 1; s < n; s++ { // a step coprime to n, near n/2
		if gcd(s, n) == 1 {
			step = s
			break
		}
	}
	return lo + (i*step)%n
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// buildPlan generates the request stream of w for seed. owner maps a vertex
// to its shard and is only needed by the sharded workload.
func buildPlan(w workload, seed int64, seconds, scale float64, owner []int32) (*plan, error) {
	n := int(math.Round(w.PerSecond * seconds * scale))
	if n < 20 {
		n = 20
	}
	h := sha256.New()
	for _, c := range w.Name {
		seed = seed*1000003 + int64(c) // separate streams per workload
	}
	rng := rand.New(rand.NewSource(seed))
	p := &plan{}
	switch w.Name {
	case "crosstown_uncached":
		for i := 0; i < n; i++ {
			hops := spread(i, 20, 40)
			src, dst := odPair(rng, hops)
			p.Requests = append(p.Requests, newRequest([]api.RankQuery{{Src: src, Dst: dst}}, false, hops))
		}
	case "local_batch_k32":
		for i := 0; i < n; i++ {
			qs := make([]api.RankQuery, w.QueriesPerRequest)
			for j := range qs {
				src, dst := odPair(rng, spread(i*len(qs)+j, 5, 12))
				qs[j] = api.RankQuery{Src: src, Dst: dst, K: 32, Strategy: "tkdi"}
			}
			p.Requests = append(p.Requests, newRequest(qs, true, 0))
		}
	case "zipf_cached":
		pool := make([]*request, zipfPool)
		seen := make(map[[2]int64]bool, zipfPool)
		for i := range pool {
			for {
				hops := spread(i, 3, 12)
				src, dst := odPair(rng, hops)
				if !seen[[2]int64{src, dst}] {
					seen[[2]int64{src, dst}] = true
					pool[i] = newRequest([]api.RankQuery{{Src: src, Dst: dst}}, false, hops)
					break
				}
			}
		}
		// Which popularity rank each request asks for does not depend on the
		// seed, only which pair holds that rank: every seed then has the same
		// sequence of hits and misses, as it has the same mix of trip lengths.
		z := rand.NewZipf(rand.New(rand.NewSource(zipfRankSeed)), zipfS, 1, zipfPool-1)
		for i := 0; i < n; i++ {
			p.Requests = append(p.Requests, pool[z.Uint64()])
		}
		// Least popular first, so the most popular are the most recently
		// used when the timed phase starts; sent as batches to fill the
		// cache on both cores.
		warm := zipfWarm
		if scale < 1 { // a smoke run warms in proportion and so hits less
			warm = int(float64(zipfWarm) * scale)
		}
		for i := warm; i > 0; i -= 64 {
			qs := make([]api.RankQuery, 0, 64)
			for j := i - 1; j >= i-64 && j >= 0; j-- {
				qs = append(qs, pool[j].Queries[0])
			}
			p.Warm = append(p.Warm, newRequest(qs, true, 0))
		}
	case "sharded_mix":
		if owner == nil {
			return nil, fmt.Errorf("sharded_mix needs the shard map")
		}
		for i := 0; i < n; i++ {
			wantCross := i%crossEvery == 2 || i%crossEvery == 5 || i%crossEvery == 8
			kind := spread(i, 4, 12)
			if wantCross {
				kind += crossKind
			}
			for {
				src, dst := odPair(rng, kind%crossKind)
				if (owner[src] != owner[dst]) == wantCross {
					p.Requests = append(p.Requests, newRequest([]api.RankQuery{{Src: src, Dst: dst}}, false, kind))
					break
				}
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", w.Name)
	}
	if len(p.Warm) == 0 {
		// Enough to fill the workspace pools and page the artifact in.
		warm := n / 20
		if warm < 10 {
			warm = 10
		}
		p.Warm = p.Requests[:warm]
	}
	for _, r := range p.Warm {
		h.Write(r.Body)
		h.Write([]byte{'\n'})
	}
	h.Write([]byte{0})
	for _, r := range p.Requests {
		h.Write(r.Body)
		h.Write([]byte{'\n'})
	}
	p.Hash = hex.EncodeToString(h.Sum(nil))[:16]
	return p, nil
}

// queries is how many ranking queries the timed phase holds.
func (p *plan) queries() int {
	n := 0
	for _, r := range p.Requests {
		n += len(r.Queries)
	}
	return n
}

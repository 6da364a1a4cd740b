package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"pathrank/internal/api"
	"pathrank/internal/pathrank"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

// This file implements the canary gate that guards hot swaps: before Swap
// publishes a candidate snapshot, a pinned golden query set is scored on
// it and checked against invariants no healthy artifact violates. A
// corrupt-but-loadable artifact (weights NaN-poisoned on disk, a model
// trained into divergence) passes every checksum — the only place its
// damage is observable is in what it answers, so that is what the gate
// inspects.

// ErrSwapRejected is wrapped by every canary-gate refusal, so callers
// (Reload's quarantine, the watcher, /v1/reload) can
// tell "the artifact is bad" from "the swap mechanism failed".
var ErrSwapRejected = errors.New("serve: swap rejected by canary gate")

const (
	// defaultCanaryDivergence is the Config.CanaryMaxDivergence default: a
	// normalized Kendall-tau distance of 0.9 means the candidate nearly
	// inverted the live ranking of the golden queries. Incremental
	// retrains legitimately reorder some candidates, so the default only
	// catches wholesale reversals; operators tighten it per deployment.
	defaultCanaryDivergence = 0.9
	// defaultCanaryTimeout bounds the whole gate. A gate that cannot
	// finish in time refuses the swap — the safe side, since the live
	// snapshot keeps serving.
	defaultCanaryTimeout = 5 * time.Second
	// canarySeed pins the golden query set: the same graph always yields
	// the same origin-destination pairs, across processes and restarts.
	canarySeed = 0x9e3779b97f4a7c15
)

// canaryRNG is a splitmix64 stream; math/rand would also do, but an
// explicit implementation pins the golden set against stdlib changes.
type canaryRNG uint64

func (r *canaryRNG) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	x := uint64(*r)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// canaryCheck scores the golden query set on the candidate snapshot and
// returns a non-nil reason when the candidate must not serve. Invariants:
// every golden query answers without error, every score is finite, every
// ranked path is non-empty, and (when the road network is unchanged) the
// candidate's ranking of the live snapshot's candidate sets diverges from
// the live ranking by at most CanaryMaxDivergence.
//
// The gate runs outside the request path: it ranks through each
// snapshot's Ranker.Rank (no result cache), so it neither pollutes the
// candidate's cache nor observes the live one.
func (s *Server) canaryCheck(next, live *snapshot) error {
	maxDiv := s.cfg.CanaryMaxDivergence
	if maxDiv <= 0 {
		maxDiv = defaultCanaryDivergence
	}
	timeout := s.cfg.CanaryTimeout
	if timeout <= 0 {
		timeout = defaultCanaryTimeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	n := next.art.Graph.NumVertices()
	if n < 2 {
		return nil
	}
	sameGraph := live != nil && live.graph == next.graph
	rng := canaryRNG(canarySeed)
	evaluated := 0
	worst := 0.0
	// Golden pairs are drawn deterministically from the candidate's own
	// vertex range; pairs the road network cannot route are skipped (that
	// is a property of the graph, not of the model under test), with a
	// bounded attempt budget so a sparsely connected network terminates.
	for attempts := 0; evaluated < s.cfg.CanaryQueries && attempts < s.cfg.CanaryQueries*8; attempts++ {
		src := roadnet.VertexID(rng.next() % uint64(n))
		dst := roadnet.VertexID(rng.next() % uint64(n))
		if src == dst {
			continue
		}
		req := pathrank.RankRequest{Src: src, Dst: dst}
		res, err := next.ranker.Rank(ctx, req)
		if err != nil {
			if pathrank.ErrorCodeOf(err) == api.CodeUnroutable {
				continue
			}
			return fmt.Errorf("canary %d->%d: %w", src, dst, err)
		}
		ranked := res.Paths
		if len(ranked) == 0 {
			return fmt.Errorf("canary %d->%d: empty candidate set", src, dst)
		}
		for i, rk := range ranked {
			if math.IsNaN(rk.Score) || math.IsInf(rk.Score, 0) {
				return fmt.Errorf("canary %d->%d: non-finite score %g at rank %d", src, dst, rk.Score, i+1)
			}
		}
		for _, rk := range ranked {
			if len(rk.Path.Vertices) == 0 {
				return fmt.Errorf("canary %d->%d: ranked an empty path", src, dst)
			}
		}
		// Candidate generation is model-independent, so on an unchanged
		// graph the live snapshot proposes the same paths and the two
		// rankings are directly comparable; only the NN scores reorder.
		if sameGraph {
			lres, lerr := live.ranker.Rank(ctx, req)
			if lerr == nil && len(lres.Paths) >= 2 {
				if d := rankDivergence(lres.Paths, ranked); d > worst {
					worst = d
				}
			}
		}
		evaluated++
	}
	// No routable golden pairs (tiny or fragmented network): nothing to
	// judge the candidate on, so the gate abstains rather than wedging
	// every future swap.
	if evaluated == 0 {
		return nil
	}
	if worst > maxDiv {
		return fmt.Errorf("canary rank divergence %.3f exceeds the %.3f bound vs the live snapshot", worst, maxDiv)
	}
	return nil
}

// rankDivergence is the normalized Kendall-tau distance between two
// rankings over their shared paths (keyed by vertex sequence): 0 when the
// candidate preserves the live order, 1 when it exactly inverts it. Fewer
// than two shared paths carry no order information and score 0.
func rankDivergence(live, cand []pathrank.Ranked) float64 {
	pos := make(map[string]int, len(live))
	for i, rk := range live {
		pos[pathKeyOf(rk.Path)] = i
	}
	order := make([]int, 0, len(cand))
	for _, rk := range cand {
		if p, ok := pos[pathKeyOf(rk.Path)]; ok {
			order = append(order, p)
		}
	}
	m := len(order)
	if m < 2 {
		return 0
	}
	inversions := 0
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if order[i] > order[j] {
				inversions++
			}
		}
	}
	return float64(inversions) / float64(m*(m-1)/2)
}

// pathKeyOf folds a path's vertex sequence into a map key.
func pathKeyOf(p spath.Path) string {
	b := make([]byte, 0, len(p.Vertices)*3)
	for _, v := range p.Vertices {
		b = binary.AppendVarint(b, int64(v))
	}
	return string(b)
}

// SwapRejection records one canary-gate refusal, surfaced in /healthz so
// an operator can see what was kept out of service and why.
type SwapRejection struct {
	// Time is when the gate refused the swap.
	Time time.Time `json:"time"`
	// Generation and Fingerprint identify the refused artifact.
	Generation  int    `json:"generation"`
	Fingerprint string `json:"fingerprint"`
	// Reason is the violated invariant.
	Reason string `json:"reason"`
	// Quarantined is where a copy of the refused artifact was written when
	// the rejection came through a file reload; empty for direct Swap
	// calls.
	Quarantined string `json:"quarantined,omitempty"`
}

// rejectSwap records a canary refusal (metric, /healthz) and returns the
// error Swap propagates.
func (s *Server) rejectSwap(next *snapshot, generation int, reason error) error {
	rej := &SwapRejection{
		Time:        time.Now(),
		Generation:  generation,
		Fingerprint: next.fpHex,
		Reason:      reason.Error(),
	}
	s.lastRejection.Store(rej)
	s.obs.swapRejected.Inc()
	if s.cfg.Logf != nil {
		s.cfg.Logf("swap REJECTED: gen %d fingerprint %.12s: %v (still serving %.12s)",
			generation, next.fpHex, reason, s.snap.Load().fpHex)
	}
	return fmt.Errorf("%w: gen %d fingerprint %.12s: %v", ErrSwapRejected, generation, next.fpHex, reason)
}

// LastSwapRejection returns the most recent canary refusal, or nil.
func (s *Server) LastSwapRejection() *SwapRejection {
	return s.lastRejection.Load()
}

package pathrank

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"pathrank/internal/api"
	"pathrank/internal/dataset"
	"pathrank/internal/geo"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

// trainedRanker builds a small trained ranker shared by the request tests.
func trainedRanker(t testing.TB) (*testWorld, *Ranker) {
	t.Helper()
	w := newTestWorld(t, 4, 2)
	m, err := New(w.g.NumVertices(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(w.queries, TrainConfig{Epochs: 2, LR: 0.005, ClipNorm: 5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	return w, NewRanker(w.g, m)
}

// TestRankDefaultsMatchPlainPipeline is the default-options promise: over
// random OD pairs and both configured strategies, Rank(ctx,
// RankRequest{Src, Dst}) returns rankings bit-identical — scores, order and
// paths — to the plain reference pipeline the benchmark oracle composes:
// CandidatesFor on EngineNone, then ScoreBatchPerPath, then RankScored.
func TestRankDefaultsMatchPlainPipeline(t *testing.T) {
	_, r := trainedRanker(t)
	configs := []dataset.Config{
		{}, // empty: both paths must fall back to the same default
		{Strategy: dataset.DTkDI, K: 4, Threshold: 0.8},
		{Strategy: dataset.TkDI, K: 3},
		{Strategy: dataset.DTkDI, K: 5, Threshold: 0.6, MaxProbe: 30},
	}
	rng := rand.New(rand.NewSource(17))
	n := r.Graph.NumVertices()
	for _, cfg := range configs {
		r.Candidates = cfg
		for i := 0; i < 10; i++ {
			src := roadnet.VertexID(rng.Intn(n))
			dst := roadnet.VertexID(rng.Intn(n))
			var want []Ranked
			cands, _, errWant := r.CandidatesFor(context.Background(), RankRequest{Src: src, Dst: dst, Engine: EngineNone})
			if errWant == nil {
				want = RankScored(cands, r.Model.ScoreBatchPerPath(cands))
			}
			resp, errGot := r.Rank(context.Background(), RankRequest{Src: src, Dst: dst})
			if (errWant == nil) != (errGot == nil) {
				t.Fatalf("cfg %+v %d->%d: err mismatch: %v vs %v", cfg, src, dst, errWant, errGot)
			}
			if errWant != nil {
				continue
			}
			if len(want) != len(resp.Paths) {
				t.Fatalf("cfg %+v %d->%d: %d vs %d ranked", cfg, src, dst, len(want), len(resp.Paths))
			}
			for j := range want {
				if want[j].Score != resp.Paths[j].Score || !want[j].Path.Equal(resp.Paths[j].Path) {
					t.Fatalf("cfg %+v %d->%d: rank %d differs", cfg, src, dst, j)
				}
			}
			if resp.Stats.Candidates != len(want) {
				t.Fatalf("stats candidates %d != %d", resp.Stats.Candidates, len(want))
			}
		}
	}
}

// TestRankOverrides checks that each per-request override actually changes
// candidate generation the way it claims.
func TestRankOverrides(t *testing.T) {
	w, r := trainedRanker(t)
	r.Candidates = dataset.Config{Strategy: dataset.DTkDI, K: 4, Threshold: 0.8}
	q := w.queries[0]
	ctx := context.Background()

	// K override bounds the candidate count.
	resp, err := r.Rank(ctx, RankRequest{Src: q.Source, Dst: q.Destination, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Paths) > 2 || resp.Stats.K != 2 {
		t.Fatalf("k=2 override: %d paths, stats.K=%d", len(resp.Paths), resp.Stats.K)
	}

	// Strategy override switches the generator: TkDI ignores diversity,
	// so it must match a plain TopK run.
	resp, err = r.Rank(ctx, RankRequest{Src: q.Source, Dst: q.Destination, Strategy: StrategyTkDI})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats.Strategy != dataset.TkDI {
		t.Fatalf("strategy override not resolved: %v", resp.Stats.Strategy)
	}
	want, err := spath.TopK(w.g, q.Source, q.Destination, 4, spath.ByLength)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Paths) != len(want) {
		t.Fatalf("TkDI override: %d paths, want %d", len(resp.Paths), len(want))
	}

	// Weight override reroutes by travel time: the top-ranked candidate
	// set must equal a ByTime TopK's path set.
	respTime, err := r.Rank(ctx, RankRequest{Src: q.Source, Dst: q.Destination, Strategy: StrategyTkDI, Weight: WeightTime})
	if err != nil {
		t.Fatal(err)
	}
	wantTime, err := spath.TopK(w.g, q.Source, q.Destination, 4, spath.ByTime)
	if err != nil {
		t.Fatal(err)
	}
	if !samePathSet(respTime.Paths, wantTime) {
		t.Fatal("weight=time override did not produce the ByTime candidate set")
	}
	if respTime.Stats.Weight != WeightTime {
		t.Fatalf("stats weight = %v, want time", respTime.Stats.Weight)
	}

	// Threshold override loosens/tightens diversity; resolved into stats.
	resp, err = r.Rank(ctx, RankRequest{Src: q.Source, Dst: q.Destination, Threshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats.Threshold != 0.3 {
		t.Fatalf("threshold override not resolved: %g", resp.Stats.Threshold)
	}
}

func samePathSet(got []Ranked, want []spath.Path) bool {
	if len(got) != len(want) {
		return false
	}
	for _, g := range got {
		found := false
		for _, w := range want {
			if g.Path.Equal(w) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// TestRankEngineChoices checks the per-request engine selection rules on a
// ranker holding a prepared CH engine.
func TestRankEngineChoices(t *testing.T) {
	w, r := trainedRanker(t)
	r.Candidates = dataset.Config{Strategy: dataset.DTkDI, K: 4, Threshold: 0.8}
	r.Engine = spath.NewEngine(spath.EngineCH, w.g, spath.ByLength)
	q := w.queries[0]
	ctx := context.Background()

	onEngine, err := r.Rank(ctx, RankRequest{Src: q.Source, Dst: q.Destination})
	if err != nil {
		t.Fatal(err)
	}
	if onEngine.Stats.Engine != spath.EngineCH {
		t.Fatalf("auto engine = %v, want ch", onEngine.Stats.Engine)
	}

	// EngineNone bypasses the prepared structure; distances are exact on
	// both, so rankings must be identical.
	plain, err := r.Rank(ctx, RankRequest{Src: q.Source, Dst: q.Destination, Engine: EngineNone})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.Engine != spath.EngineDijkstra {
		t.Fatalf("engine=none ran on %v", plain.Stats.Engine)
	}
	if len(plain.Paths) != len(onEngine.Paths) {
		t.Fatalf("engine none vs ch: %d vs %d paths", len(plain.Paths), len(onEngine.Paths))
	}
	for i := range plain.Paths {
		if !plain.Paths[i].Path.Equal(onEngine.Paths[i].Path) || plain.Paths[i].Score != onEngine.Paths[i].Score {
			t.Fatalf("engine none vs ch: rank %d differs", i)
		}
	}

	// Requesting a prepared kind the ranker does not hold is invalid.
	unprepared := *r
	unprepared.Engine = nil
	_, err = unprepared.Rank(ctx, RankRequest{Src: q.Source, Dst: q.Destination, Engine: EngineCH})
	if ErrorCodeOf(err) != api.CodeInvalid {
		t.Fatalf("ch on an unprepared ranker: code %q, want invalid", ErrorCodeOf(err))
	}

	// An explicit prepared engine with the time metric is contradictory.
	_, err = r.Rank(ctx, RankRequest{Src: q.Source, Dst: q.Destination, Engine: EngineCH, Weight: WeightTime})
	if ErrorCodeOf(err) != api.CodeInvalid {
		t.Fatalf("ch+time: code %q, want invalid", ErrorCodeOf(err))
	}

	// Auto engine with the time metric silently bypasses the prepared
	// structure (it serves the length metric).
	resp, err := r.Rank(ctx, RankRequest{Src: q.Source, Dst: q.Destination, Weight: WeightTime})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats.Engine != spath.EngineDijkstra {
		t.Fatalf("time-metric query ran on %v, want dijkstra", resp.Stats.Engine)
	}
}

// TestRankErrorCodes checks the typed error classification.
func TestRankErrorCodes(t *testing.T) {
	_, r := trainedRanker(t)
	ctx := context.Background()
	n := roadnet.VertexID(r.Graph.NumVertices())

	cases := []struct {
		name string
		req  RankRequest
		code string
	}{
		{"src out of range", RankRequest{Src: n, Dst: 0}, api.CodeInvalid},
		{"negative dst", RankRequest{Src: 0, Dst: -1}, api.CodeInvalid},
		{"negative k", RankRequest{Src: 0, Dst: 1, K: -1}, api.CodeInvalid},
		{"threshold > 1", RankRequest{Src: 0, Dst: 1, Threshold: 1.5}, api.CodeInvalid},
	}
	for _, tc := range cases {
		_, err := r.Rank(ctx, tc.req)
		if err == nil || ErrorCodeOf(err) != tc.code {
			t.Errorf("%s: err=%v code=%q, want %q", tc.name, err, ErrorCodeOf(err), tc.code)
		}
		var re *RankError
		if !errors.As(err, &re) {
			t.Errorf("%s: error is not a *RankError", tc.name)
		}
	}

	// Unroutable: two islands.
	b := roadnet.NewBuilder(4, 4)
	v0 := b.AddVertex(geo.Point{Lon: 10, Lat: 57})
	v1 := b.AddVertex(geo.Point{Lon: 10.01, Lat: 57})
	v2 := b.AddVertex(geo.Point{Lon: 10.02, Lat: 57})
	v3 := b.AddVertex(geo.Point{Lon: 10.03, Lat: 57})
	b.AddBidirectional(v0, v1, roadnet.Residential)
	b.AddBidirectional(v2, v3, roadnet.Residential)
	g := b.Build()
	m, err := New(g.NumVertices(), Config{EmbeddingDim: 4, Hidden: 4, Variant: PRA2, Body: GRUBody, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	island := NewRanker(g, m)
	_, err = island.Rank(ctx, RankRequest{Src: v0, Dst: v2})
	if ErrorCodeOf(err) != api.CodeUnroutable {
		t.Fatalf("disconnected pair: code %q, want unroutable", ErrorCodeOf(err))
	}

	// Canceled and deadline-expired contexts classify distinctly.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	_, err = r.Rank(canceled, RankRequest{Src: 0, Dst: 1})
	if ErrorCodeOf(err) != api.CodeCanceled {
		t.Fatalf("canceled ctx: code %q, want canceled", ErrorCodeOf(err))
	}
	expired, cancel2 := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel2()
	_, err = r.Rank(expired, RankRequest{Src: 0, Dst: 1})
	if ErrorCodeOf(err) != api.CodeDeadline {
		t.Fatalf("expired ctx: code %q, want deadline", ErrorCodeOf(err))
	}
}

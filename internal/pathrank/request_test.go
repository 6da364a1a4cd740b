package pathrank

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
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
// paths — to the plain reference pipeline: the resolved candidate rule on
// a per-query weight fill, then ScoreBatchPerPath, then RankScored.
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
			rg, err := Resolve(RankRequest{}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			plain := dataset.Config{Strategy: rg.Strategy, K: rg.K, Threshold: rg.Threshold, MaxProbe: rg.MaxProbe}
			cands, _, errWant := plain.Candidates(context.Background(), r.Graph, nil, spath.ByLength, nil, src, dst)
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

// TestRankerWeightTables pins where generation's weights come from: each
// metric's table is built on its first query, once, and every later query
// of that metric reads the same table, so no query fills one. Concurrent
// first queries of both metrics (run it under -race) rank exactly as a
// per-query fill does.
func TestRankerWeightTables(t *testing.T) {
	w, r := trainedRanker(t)
	r.Candidates = dataset.Config{Strategy: dataset.DTkDI, K: 4, Threshold: 0.8}
	q := w.queries[0]
	want := map[WeightKind][]spath.Path{}
	for _, wk := range []WeightKind{WeightLength, WeightTime} {
		rg, err := Resolve(RankRequest{Weight: wk}, r.Candidates)
		if err != nil {
			t.Fatal(err)
		}
		cfg := dataset.Config{Strategy: rg.Strategy, K: rg.K, Threshold: rg.Threshold, MaxProbe: rg.MaxProbe}
		want[wk], _, err = cfg.Candidates(context.Background(), w.g, nil, wk.Weight(), nil, q.Source, q.Destination)
		if err != nil {
			t.Fatal(err)
		}
	}
	if r.tables[0].wts != nil || r.tables[1].wts != nil {
		t.Fatal("a ranker that has not ranked holds a weight table")
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(wk WeightKind) {
			defer wg.Done()
			got, _, err := r.CandidatesFor(context.Background(), RankRequest{Src: q.Source, Dst: q.Destination, Weight: wk})
			if err != nil {
				t.Error(err)
				return
			}
			if len(got) != len(want[wk]) {
				t.Errorf("%s: %d candidates, per-query fill %d", wk, len(got), len(want[wk]))
				return
			}
			for j := range got {
				if !got[j].Equal(want[wk][j]) || got[j].Cost != want[wk][j].Cost {
					t.Errorf("%s: candidate %d differs from the per-query fill's", wk, j)
				}
			}
		}([]WeightKind{WeightLength, WeightTime}[i%2])
	}
	wg.Wait()

	for i, wk := range []WeightKind{WeightLength, WeightTime} {
		table := r.Weights(wk)
		if len(table) != w.g.NumEdges() || &table[0] != &r.tables[i].wts[0] || &r.Weights(wk)[0] != &table[0] {
			t.Fatalf("%s: the table is not the one built on the first query", wk)
		}
		for e, x := range spath.WeightTable(w.g, wk.Weight()) {
			if math.Float64bits(x) != math.Float64bits(table[e]) {
				t.Fatalf("%s: edge %d weighs %v in the ranker's table, %v evaluated", wk, e, table[e], x)
			}
		}
	}
	if &r.Weights(WeightAuto)[0] != &r.Weights(WeightLength)[0] {
		t.Fatal("the default metric does not share the length table")
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

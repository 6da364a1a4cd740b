package dataset

import (
	"context"
	"testing"

	"pathrank/internal/allocpin"
	"pathrank/internal/geo"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

// TestDTkDICandidatesAllocsNoEdgeScratch: a warm D-TkDI Candidates call
// on a 10k-edge network borrows its similarity scratch from the pool, so
// it allocates less than one NumEdges-sized stamp array in all — the two
// fresh ones a call used to build were most of a query's allocation.
func TestDTkDICandidatesAllocsNoEdgeScratch(t *testing.T) {
	if allocpin.Race {
		t.Skip("the race detector drops pooled scratch at random")
	}
	g, err := roadnet.Generate(roadnet.GenConfig{
		Rows: 52, Cols: 52, SpacingM: 250, JitterFrac: 0.2,
		RemoveFrac: 0.05, ArterialEvery: 4, Motorway: false,
		Origin: geo.Point{Lon: 10, Lat: 57}, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() < 10000 {
		t.Fatalf("network has %d edges, want at least 10k", g.NumEdges())
	}
	cfg := Config{Strategy: DTkDI, K: 5, Threshold: 0.8}
	src, dst := roadnet.VertexID(20*52+20), roadnet.VertexID(24*52+26)
	query := func() {
		cands, _, err := cfg.Candidates(context.Background(), g, nil, spath.ByLength, nil, src, dst)
		if err != nil || len(cands) < 2 {
			t.Fatalf("%d candidates, err %v", len(cands), err)
		}
	}
	bytes := allocpin.Measure(query).Bytes
	if limit := uint64(4 * g.NumEdges()); bytes >= limit {
		t.Fatalf("a warm D-TkDI query allocates %d bytes, want under one %d-byte edge array", bytes, limit)
	}
	t.Logf("%d bytes per query on %d edges", bytes, g.NumEdges())
}

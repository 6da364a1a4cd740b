package roadnet

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"pathrank/internal/geo"
)

// tinyGraph builds a 4-vertex diamond: 0 -> 1 -> 3, 0 -> 2 -> 3, both ways.
func tinyGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(4, 8)
	p := []geo.Point{
		{Lon: 10.00, Lat: 57.00},
		{Lon: 10.01, Lat: 57.01},
		{Lon: 10.01, Lat: 56.99},
		{Lon: 10.02, Lat: 57.00},
	}
	for _, pt := range p {
		b.AddVertex(pt)
	}
	b.AddBidirectional(0, 1, Primary)
	b.AddBidirectional(1, 3, Primary)
	b.AddBidirectional(0, 2, Residential)
	b.AddBidirectional(2, 3, Residential)
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatalf("tiny graph invalid: %v", err)
	}
	return g
}

func TestBuilderCounts(t *testing.T) {
	g := tinyGraph(t)
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 8 {
		t.Fatalf("NumEdges = %d, want 8", g.NumEdges())
	}
}

func TestAdjacencyConsistency(t *testing.T) {
	g := tinyGraph(t)
	for v := VertexID(0); int(v) < g.NumVertices(); v++ {
		for _, eid := range g.OutEdges(v) {
			if g.Edge(eid).From != v {
				t.Errorf("edge %d listed as out-edge of %d but From=%d", eid, v, g.Edge(eid).From)
			}
		}
		for _, eid := range g.InEdges(v) {
			if g.Edge(eid).To != v {
				t.Errorf("edge %d listed as in-edge of %d but To=%d", eid, v, g.Edge(eid).To)
			}
		}
	}
	if out, in := len(g.OutEdges(0)), len(g.InEdges(0)); out != 2 || in != 2 {
		t.Errorf("vertex 0 degrees out=%d in=%d, want 2/2", out, in)
	}
}

func TestFindEdge(t *testing.T) {
	g := tinyGraph(t)
	if _, ok := g.FindEdge(0, 1); !ok {
		t.Error("expected edge 0->1")
	}
	if _, ok := g.FindEdge(0, 3); ok {
		t.Error("unexpected edge 0->3")
	}
}

func TestEdgeTimeConsistentWithCategorySpeed(t *testing.T) {
	g := tinyGraph(t)
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(EdgeID(i))
		wantTime := e.Length / (e.Category.SpeedKmH() / 3.6)
		if diff := e.Time - wantTime; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("edge %d time %.6f, want %.6f", i, e.Time, wantTime)
		}
	}
}

func TestCategorySpeedOrdering(t *testing.T) {
	if !(Motorway.SpeedKmH() > Primary.SpeedKmH() &&
		Primary.SpeedKmH() > Secondary.SpeedKmH() &&
		Secondary.SpeedKmH() > Residential.SpeedKmH()) {
		t.Fatal("category speeds should strictly decrease from Motorway to Residential")
	}
}

func TestCategoryString(t *testing.T) {
	cases := map[Category]string{
		Motorway: "motorway", Primary: "primary",
		Secondary: "secondary", Residential: "residential",
	}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("Category(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestValidateCatchesBadEdges(t *testing.T) {
	b := NewBuilder(2, 1)
	b.AddVertex(geo.Point{Lon: 10, Lat: 57})
	b.AddVertex(geo.Point{Lon: 10.01, Lat: 57})
	b.AddEdge(0, 1, Primary)
	g := b.Build()
	g.edges[0].Length = -5
	if err := g.Validate(); err == nil {
		t.Fatal("Validate should reject negative edge length")
	}
	g.edges[0].Length = 100
	g.edges[0].Time = 0
	if err := g.Validate(); err == nil {
		t.Fatal("Validate should reject zero travel time")
	}
}

func TestGenerateDefaultIsValidAndConnected(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Rows, cfg.Cols = 12, 15 // keep the unit test fast
	g, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if g.NumVertices() < cfg.Rows*cfg.Cols {
		t.Fatalf("expected at least %d vertices, got %d", cfg.Rows*cfg.Cols, g.NumVertices())
	}
	seen := g.StronglyConnectedFrom(0)
	for v, ok := range seen {
		if !ok {
			t.Fatalf("vertex %d unreachable from 0", v)
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	bad := []GenConfig{
		{Rows: 1, Cols: 5, SpacingM: 100},
		{Rows: 5, Cols: 5, SpacingM: 0},
		{Rows: 5, Cols: 5, SpacingM: 100, JitterFrac: 0.9},
		{Rows: 5, Cols: 5, SpacingM: 100, RemoveFrac: 0.9},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Rows, cfg.Cols = 8, 8
	g1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumVertices() != g2.NumVertices() || g1.NumEdges() != g2.NumEdges() {
		t.Fatalf("same seed produced different graphs: %d/%d vs %d/%d vertices/edges",
			g1.NumVertices(), g1.NumEdges(), g2.NumVertices(), g2.NumEdges())
	}
	for i := 0; i < g1.NumEdges(); i++ {
		if g1.Edge(EdgeID(i)) != g2.Edge(EdgeID(i)) {
			t.Fatalf("edge %d differs between runs", i)
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Rows, cfg.Cols = 8, 8
	g1, _ := Generate(cfg)
	cfg.Seed = 99
	g2, _ := Generate(cfg)
	same := g1.NumEdges() == g2.NumEdges()
	if same {
		for i := 0; i < g1.NumEdges(); i++ {
			if g1.Edge(EdgeID(i)).Length != g2.Edge(EdgeID(i)).Length {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestGenerateHasCategoryMix(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Rows, cfg.Cols = 15, 15
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[Category]int)
	for i := 0; i < g.NumEdges(); i++ {
		counts[g.Edge(EdgeID(i)).Category]++
	}
	for _, c := range []Category{Motorway, Primary, Secondary, Residential} {
		if counts[c] == 0 {
			t.Errorf("generated network has no %s edges", c)
		}
	}
	if counts[Residential] < counts[Motorway] {
		t.Error("residential edges should dominate motorway edges")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g := tinyGraph(t)
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	g2, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("round trip changed graph size")
	}
	for i := 0; i < g.NumEdges(); i++ {
		if g.Edge(EdgeID(i)) != g2.Edge(EdgeID(i)) {
			t.Fatalf("edge %d changed in round trip", i)
		}
	}
	for i := 0; i < g.NumVertices(); i++ {
		if g.Vertex(VertexID(i)) != g2.Vertex(VertexID(i)) {
			t.Fatalf("vertex %d changed in round trip", i)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	g := tinyGraph(t)
	path := t.TempDir() + "/net.gob"
	if err := g.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	g2, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("file round trip changed edge count")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Fatal("Load should fail on garbage input")
	}
}

// Property: for any random graph built through the Builder, CSR adjacency
// partitions the edge set exactly.
func TestBuilderAdjacencyPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		b := NewBuilder(n, n*3)
		for i := 0; i < n; i++ {
			b.AddVertex(geo.Point{Lon: 10 + rng.Float64()*0.1, Lat: 57 + rng.Float64()*0.1})
		}
		m := n + rng.Intn(3*n)
		for i := 0; i < m; i++ {
			u := VertexID(rng.Intn(n))
			v := VertexID(rng.Intn(n))
			if u == v {
				continue
			}
			b.AddEdge(u, v, Category(rng.Intn(NumCategories)))
		}
		g := b.Build()
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

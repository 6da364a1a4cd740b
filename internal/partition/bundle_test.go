package partition

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pathrank/internal/dataset"
	"pathrank/internal/pathrank"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

// testBundleArtifact builds a small serveable artifact (untrained model —
// scoring determinism is all the bundle machinery needs).
func testBundleArtifact(t testing.TB, seed int64) *pathrank.Artifact {
	t.Helper()
	g := testGraph(t, 7, 8, seed)
	model, err := pathrank.New(g.NumVertices(), pathrank.Config{
		EmbeddingDim: 8, Hidden: 6, Variant: pathrank.PRA2, Body: pathrank.GRUBody, Seed: seed,
	})
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	return &pathrank.Artifact{
		Graph: g, Model: model,
		Candidates: dataset.Config{Strategy: dataset.DTkDI, K: 4, Threshold: 0.8},
	}
}

func TestBuildBundleRoundTrip(t *testing.T) {
	art := testBundleArtifact(t, 9)
	dir := t.TempDir()
	man, err := BuildBundle(art, dir, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if man.Parts != 3 || man.Vertices != art.Graph.NumVertices() || man.Edges != art.Graph.NumEdges() {
		t.Fatalf("manifest shape %+v does not match artifact", man)
	}

	mb, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var loaded Manifest
	if err := json.Unmarshal(mb, &loaded); err != nil {
		t.Fatal(err)
	}
	if loaded.Fingerprint != man.Fingerprint || loaded.Parts != man.Parts {
		t.Fatalf("reloaded manifest differs: %+v vs %+v", loaded, man)
	}

	sm, err := LoadShardMapFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Parts != 3 || sm.NumVertices != art.Graph.NumVertices() || sm.NumEdges != art.Graph.NumEdges() {
		t.Fatalf("shard map shape: %+v", sm)
	}
	if sm.Fingerprint != man.Fingerprint {
		t.Fatalf("shard map fingerprint %s != manifest %s", sm.Fingerprint, man.Fingerprint)
	}

	// The embedded model round-trips and matches the bundle fingerprint.
	model, err := sm.Model()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := model.FingerprintHex()
	if err != nil {
		t.Fatal(err)
	}
	if fp != sm.Fingerprint {
		t.Fatalf("shard map model fingerprint %s != recorded %s", fp, sm.Fingerprint)
	}

	// Total weights bound every loopless path: they must equal the exact
	// edge-weight sums.
	var wantLen, wantTime float64
	for i := 0; i < art.Graph.NumEdges(); i++ {
		e := art.Graph.Edge(roadnet.EdgeID(i))
		wantLen += e.Length
		wantTime += e.Time
	}
	if sm.TotalLen != wantLen || sm.TotalTime != wantTime {
		t.Fatalf("total weights %g/%g != %g/%g", sm.TotalLen, sm.TotalTime, wantLen, wantTime)
	}

	// The boundary tables hold full-graph distances, up to the rounding
	// of the overlay's legs, and +Inf exactly where there is no path.
	all := sm.GlobalBoundary()
	if len(all) == 0 {
		t.Fatal("empty boundary")
	}
	requireNearFullGraph(t, art.Graph, all, sm.DLen, spath.ByLength)
	requireNearFullGraph(t, art.Graph, all, sm.DTime, spath.ByTime)

	// Every shard artifact loads, carries its shard identity, and keeps the
	// full vertex table with only induced edges.
	edgeSum := 0
	for i := 0; i < 3; i++ {
		sart, err := pathrank.LoadArtifactFile(dir + "/" + ShardArtifactName(i))
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if sart.Shard == nil {
			t.Fatalf("shard %d artifact carries no shard metadata", i)
		}
		if sart.Shard.Index != i || sart.Shard.Parts != 3 {
			t.Fatalf("shard %d identity: %+v", i, sart.Shard)
		}
		if sart.Graph.NumVertices() != art.Graph.NumVertices() {
			t.Fatalf("shard %d dropped vertices", i)
		}
		if len(sart.Shard.EdgeGlobal) != sart.Graph.NumEdges() {
			t.Fatalf("shard %d edge mapping size", i)
		}
		sfp, err := sart.Model.FingerprintHex()
		if err != nil {
			t.Fatal(err)
		}
		if sfp != sm.Fingerprint {
			t.Fatalf("shard %d model fingerprint %s != bundle %s", i, sfp, sm.Fingerprint)
		}
		edgeSum += sart.Graph.NumEdges()
	}
	if edgeSum+len(sm.CutEdges) != art.Graph.NumEdges() {
		t.Fatalf("edges: %d induced + %d cut != %d", edgeSum, len(sm.CutEdges), art.Graph.NumEdges())
	}
}

func TestShardMapRejectsCorruption(t *testing.T) {
	art := testBundleArtifact(t, 4)
	dir := t.TempDir()
	if _, err := BuildBundle(art, dir, 2, nil); err != nil {
		t.Fatal(err)
	}
	sm, err := LoadShardMapFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	// validate() runs on load; breaking an invariant and re-validating must
	// fail rather than let the router serve wrong routes.
	owner := sm.Owner[0]
	sm.Owner[0] = 99
	if err := sm.validate(); err == nil {
		t.Fatal("out-of-range owner accepted")
	}
	sm.Owner[0] = owner
	// The router merges cut edges with the shards' ascending corridors.
	if len(sm.CutEdges) < 2 {
		t.Fatalf("%d cut edges: split degenerate", len(sm.CutEdges))
	}
	sm.CutEdges[0], sm.CutEdges[1] = sm.CutEdges[1], sm.CutEdges[0]
	if err := sm.validate(); err == nil {
		t.Fatal("cut edges out of ID order accepted")
	}

	// The params section follows the checksummed payload; the recorded
	// Fingerprint is their digest. A flipped params byte, a Fingerprint
	// that is not their hash (the payload resealed, so only the digest
	// can tell) and a params section cut short or run long are corrupt.
	data, err := os.ReadFile(filepath.Join(dir, ShardMapName))
	if err != nil {
		t.Fatal(err)
	}
	params := len(data) - len(sm.ModelParams)
	other := bytes.Repeat([]byte{'0'}, 64)
	otherFP := bytes.Replace(data, []byte(sm.Fingerprint), other, 1)
	h := pathrank.EncodeFrame(shardMapMagic, shardMapVersion, otherFP[pathrank.FrameHeaderLen:params])
	copy(otherFP, h[:])
	for name, mut := range map[string][]byte{
		"flipped first params byte": flip(data, params),
		"flipped last params byte":  flip(data, len(data)-1),
		"other fingerprint":         otherFP,
		"params cut short":          data[:len(data)-1],
		"params run long":           append(bytes.Clone(data), 0),
	} {
		if _, err := LoadShardMap(mut); !errors.Is(err, pathrank.ErrArtifactCorrupt) {
			t.Errorf("%s: want ErrArtifactCorrupt, got %v", name, err)
		}
	}
}

// flip returns a copy of data with one bit of byte i flipped.
func flip(data []byte, i int) []byte {
	out := bytes.Clone(data)
	out[i] ^= 0x01
	return out
}

// BenchmarkBuildBundle times a four-shard bundle build of the served world:
// the 56x56 generated grid with its motorway ring (3,152 vertices) and an
// untrained model of the default shape (embedding 128, hidden 64), as the
// serving benchmark's sharded set-up builds it.
func BenchmarkBuildBundle(b *testing.B) {
	cfg := roadnet.DefaultGenConfig()
	cfg.Rows, cfg.Cols, cfg.Seed = 56, 56, 1
	g, err := roadnet.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	model, err := pathrank.New(g.NumVertices(), pathrank.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	art := &pathrank.Artifact{
		Graph: g, Model: model,
		Candidates: dataset.Config{Strategy: dataset.DTkDI, K: 5, Threshold: 0.8},
	}
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := BuildBundle(art, dir, 4, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadShardMapFile times the router's load of the served world's
// four-shard map (BenchmarkBuildBundle's bundle): read, checksum, decode
// and validate, endpoint tables included. map-bytes is the file's size.
func BenchmarkLoadShardMapFile(b *testing.B) {
	cfg := roadnet.DefaultGenConfig()
	cfg.Rows, cfg.Cols, cfg.Seed = 56, 56, 1
	g, err := roadnet.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	model, err := pathrank.New(g.NumVertices(), pathrank.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	art := &pathrank.Artifact{
		Graph: g, Model: model,
		Candidates: dataset.Config{Strategy: dataset.DTkDI, K: 5, Threshold: 0.8},
	}
	dir := b.TempDir()
	if _, err := BuildBundle(art, dir, 4, nil); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, ShardMapName))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := LoadShardMapFile(dir); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.Size()), "map-bytes")
}

// pinnedShardMapSum is the SHA-256 of pinnedShardMap's file.
const pinnedShardMapSum = "2f296ab2e19538fbb83e7e1a4b13f9604d32406d8a5bf0520ee7654cb54c14cc"

// pinnedShardMap is a small shard map with every field and table set.
func pinnedShardMap() *ShardMap {
	m := &ShardMap{
		Parts: 2, NumVertices: 3, NumEdges: 2,
		Owner:       []int32{0, 0, 1},
		Boundary:    [][]roadnet.VertexID{{1}, {2}},
		CutEdges:    []roadnet.Edge{{ID: 1, From: 1, To: 2, Length: 120.5, Time: 9.25, Category: roadnet.Residential}},
		DLen:        []float64{0, 120.5, math.Inf(1), 0},
		DTime:       []float64{0, 9.25, math.Inf(1), 0},
		TotalLen:    250.5,
		TotalTime:   19.25,
		Candidates:  dataset.Config{Strategy: dataset.DTkDI, K: 5, Threshold: 0.8},
		ModelConfig: pathrank.Config{EmbeddingDim: 4, Hidden: 4, Variant: pathrank.PRA2, Seed: 1},
		ModelParams: []byte{1, 2, 3},
		Fingerprint: "039058c6f2c0cb492c533b0a4d14ef77cc0f78abccced5287d84a1a2011cfb81", // SHA-256 of ModelParams
	}
	m.setEndpoint([][]float64{{130, 0, 10, 0, 130, 0, 10, 0}, {0, 0, math.Inf(1), 0}})
	return m
}

// TestShardMapBytesPinned: every byte of a shard map file is fixed by the
// map, whatever the process encoded before, so a pinned map hashes the
// same in every run and every binary, and loads back equal.
func TestShardMapBytesPinned(t *testing.T) {
	want := pinnedShardMap()
	var buf bytes.Buffer
	if err := SaveShardMap(&buf, want); err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != pinnedShardMapSum {
		t.Fatalf("shard map file hashes to %x, pinned %s", sum, pinnedShardMapSum)
	}
	got, err := LoadShardMap(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded map %+v, saved %+v", got, want)
	}
}

package pathrank

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pathrank/internal/dataset"
	"pathrank/internal/geo"
	"pathrank/internal/nn"
	"pathrank/internal/node2vec"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

// trainedArtifact builds a small trained pipeline and wraps it in an
// Artifact, shared by the round-trip tests.
func trainedArtifact(t testing.TB) *Artifact {
	t.Helper()
	w := newTestWorld(t, 6, 2)
	cfg := smallConfig()
	m, err := New(w.g.NumVertices(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	emb := node2vec.Embed(w.g, node2vec.DefaultWalkConfig(), node2vec.DefaultTrainConfig(cfg.EmbeddingDim))
	if err := m.InitEmbeddings(emb); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(w.queries, TrainConfig{Epochs: 2, LR: 0.005, ClipNorm: 5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	return &Artifact{
		Graph:      w.g,
		Model:      m,
		Candidates: dataset.Config{Strategy: dataset.DTkDI, K: 4, Threshold: 0.8},
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	art := trainedArtifact(t)
	var buf bytes.Buffer
	if err := SaveArtifact(&buf, art); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := LoadArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("load: %v", err)
	}

	if got.Graph.NumVertices() != art.Graph.NumVertices() || got.Graph.NumEdges() != art.Graph.NumEdges() {
		t.Fatalf("graph shape changed: %d/%d -> %d/%d",
			art.Graph.NumVertices(), art.Graph.NumEdges(),
			got.Graph.NumVertices(), got.Graph.NumEdges())
	}
	if got.Candidates != art.Candidates {
		t.Fatalf("candidate config changed: %+v -> %+v", art.Candidates, got.Candidates)
	}
	if got.Model.Config() != art.Model.Config() {
		t.Fatalf("model config changed: %+v -> %+v", art.Model.Config(), got.Model.Config())
	}
	// Weights must be bit-identical.
	fa, err := art.Model.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := got.Model.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Fatal("reloaded model weights are not bit-identical")
	}

	// And therefore rankings must be bit-identical too.
	ra := art.NewRanker()
	rb := got.NewRanker()
	src := roadnet.VertexID(0)
	dst := roadnet.VertexID(art.Graph.NumVertices() - 1)
	wantResp, err := ra.Rank(context.Background(), RankRequest{Src: src, Dst: dst})
	if err != nil {
		t.Fatal(err)
	}
	gotResp, err := rb.Rank(context.Background(), RankRequest{Src: src, Dst: dst})
	if err != nil {
		t.Fatal(err)
	}
	wantRanked, gotRanked := wantResp.Paths, gotResp.Paths
	if len(wantRanked) != len(gotRanked) {
		t.Fatalf("ranked %d paths, want %d", len(gotRanked), len(wantRanked))
	}
	for i := range wantRanked {
		if wantRanked[i].Score != gotRanked[i].Score {
			t.Fatalf("rank %d score %v != %v", i, gotRanked[i].Score, wantRanked[i].Score)
		}
	}
}

func TestArtifactFileRoundTrip(t *testing.T) {
	art := trainedArtifact(t)
	path := filepath.Join(t.TempDir(), "model.prart")
	if err := SaveArtifactFile(path, art); err != nil {
		t.Fatalf("save file: %v", err)
	}
	got, err := LoadArtifactFile(path)
	if err != nil {
		t.Fatalf("load file: %v", err)
	}
	fa, _ := art.Model.Fingerprint()
	fb, _ := got.Model.Fingerprint()
	if fa != fb {
		t.Fatal("file round-trip changed model weights")
	}
}

func TestArtifactRejectsGarbage(t *testing.T) {
	_, err := LoadArtifact(bytes.NewReader([]byte("this is not an artifact at all")))
	if !errors.Is(err, ErrArtifactFormat) {
		t.Fatalf("want ErrArtifactFormat, got %v", err)
	}
	_, err = LoadArtifact(bytes.NewReader(nil))
	if !errors.Is(err, ErrArtifactFormat) {
		t.Fatalf("want ErrArtifactFormat for empty input, got %v", err)
	}
}

// TestArtifactRejectsVersionMismatch: this build writes format 4 and also
// reads format 3. The retired versions 1 and 2 and an unknown future one
// are all refused with ErrArtifactVersion and a message that says what to
// do about it.
func TestArtifactRejectsVersionMismatch(t *testing.T) {
	art := trainedArtifact(t)
	var buf bytes.Buffer
	if err := SaveArtifact(&buf, art); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, v := range []uint32{1, 2, artifactVersion + 41} {
		binary.BigEndian.PutUint32(data[8:12], v)
		_, err := LoadArtifact(bytes.NewReader(data))
		if !errors.Is(err, ErrArtifactVersion) {
			t.Fatalf("version %d: want ErrArtifactVersion, got %v", v, err)
		}
		if !strings.Contains(err.Error(), "retrain") {
			t.Fatalf("version %d: error does not name the fix: %v", v, err)
		}
	}
}

func TestArtifactRejectsCorruption(t *testing.T) {
	art := trainedArtifact(t)
	var buf bytes.Buffer
	if err := SaveArtifact(&buf, art); err != nil {
		t.Fatal(err)
	}
	plen := int(binary.BigEndian.Uint64(buf.Bytes()[44:52]))

	// One flipped bit anywhere must be caught: the header checksum covers
	// the payload, the raw digest inside it everything after.
	for name, off := range map[string]int{
		"payload":         FrameHeaderLen + plen/2,
		"raw directory":   align8(FrameHeaderLen+plen) + rawDirHeaderLen + 3,
		"last array byte": buf.Len() - 1,
	} {
		data := bytes.Clone(buf.Bytes())
		data[off] ^= 0x40
		if _, err := LoadArtifact(bytes.NewReader(data)); !errors.Is(err, ErrArtifactCorrupt) {
			t.Fatalf("flipped %s byte: want ErrArtifactCorrupt, got %v", name, err)
		}
	}

	// Truncations, in the payload and in the raw section: must be reported
	// as corrupt, not an EOF panic.
	for _, n := range []int{FrameHeaderLen + plen/2, buf.Len() - 9} {
		if _, err := LoadArtifact(bytes.NewReader(buf.Bytes()[:n])); !errors.Is(err, ErrArtifactCorrupt) {
			t.Fatalf("truncated to %d bytes: want ErrArtifactCorrupt, got %v", n, err)
		}
	}

	// An absurd length field must not cause a huge allocation attempt.
	data := bytes.Clone(buf.Bytes())
	binary.BigEndian.PutUint64(data[44:52], 1<<62)
	if _, err := LoadArtifact(bytes.NewReader(data)); !errors.Is(err, ErrArtifactCorrupt) {
		t.Fatalf("want ErrArtifactCorrupt for oversized length, got %v", err)
	}
}

func TestArtifactCorruptFileOnDisk(t *testing.T) {
	art := trainedArtifact(t)
	path := filepath.Join(t.TempDir(), "model.prart")
	if err := SaveArtifactFile(path, art); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[60] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadArtifactFile(path); !errors.Is(err, ErrArtifactCorrupt) {
		t.Fatalf("want ErrArtifactCorrupt, got %v", err)
	}
}

// TestArtifactLineageRoundTrip proves lineage metadata survives the bundle
// format and that Child chains generations correctly.
func TestArtifactLineageRoundTrip(t *testing.T) {
	art := trainedArtifact(t)
	art.Lineage = Lineage{Generation: 0, TrainedOn: 12, TotalObserved: 12, Note: "offline"}
	parent, err := art.Model.FingerprintHex()
	if err != nil {
		t.Fatal(err)
	}
	art.Lineage = art.Lineage.Child(parent, 5, "stream")
	if art.Lineage.Generation != 1 || art.Lineage.Parent != parent ||
		art.Lineage.TrainedOn != 5 || art.Lineage.TotalObserved != 17 {
		t.Fatalf("Child lineage wrong: %+v", art.Lineage)
	}

	var buf bytes.Buffer
	if err := SaveArtifact(&buf, art); err != nil {
		t.Fatal(err)
	}
	got, err := LoadArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Lineage != art.Lineage {
		t.Fatalf("lineage changed across round trip: %+v -> %+v", art.Lineage, got.Lineage)
	}
}

// TestModelClone proves a clone is bit-identical but fully independent:
// training the clone must not move the original's weights.
func TestModelClone(t *testing.T) {
	art := trainedArtifact(t)
	orig, err := art.Model.FingerprintHex()
	if err != nil {
		t.Fatal(err)
	}
	clone, err := art.Model.Clone()
	if err != nil {
		t.Fatal(err)
	}
	cfp, err := clone.FingerprintHex()
	if err != nil {
		t.Fatal(err)
	}
	if cfp != orig {
		t.Fatal("clone weights differ from original")
	}
	w := newTestWorld(t, 6, 2)
	for _, q := range w.queries {
		for _, c := range q.Candidates {
			if a, b := art.Model.Score(c.Path), clone.Score(c.Path); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("clone scores %x, original %x", math.Float64bits(b), math.Float64bits(a))
			}
		}
	}
	for i, p := range clone.params {
		if p.Frozen != art.Model.params[i].Frozen {
			t.Fatalf("param %s: clone frozen %v, original %v", p.Name, p.Frozen, art.Model.params[i].Frozen)
		}
	}
	saved := clone.params[0].W[0]
	clone.params[0].W[0]++
	if after, err := art.Model.FingerprintHex(); err != nil || after != orig {
		t.Fatal("writing a clone weight changed the original")
	}
	clone.params[0].W[0] = saved
	if _, err := clone.FineTune(w.queries, TrainConfig{Epochs: 1, LR: 0.01, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	after, err := art.Model.FingerprintHex()
	if err != nil {
		t.Fatal(err)
	}
	if after != orig {
		t.Fatal("fine-tuning the clone mutated the original model")
	}
	cafter, err := clone.FingerprintHex()
	if err != nil {
		t.Fatal(err)
	}
	if cafter == orig {
		t.Fatal("fine-tune did not change the clone")
	}
}

// TestArtifactRejectsImplausibleShape: a crafted config whose tensors could
// not fit the params payload must be rejected before allocation.
func TestArtifactRejectsImplausibleShape(t *testing.T) {
	if err := checkModelShape(10, Config{EmbeddingDim: 1 << 30, Hidden: 4, Body: GRUBody}, 100); !errors.Is(err, ErrArtifactCorrupt) {
		t.Fatalf("huge embedding dim: want ErrArtifactCorrupt, got %v", err)
	}
	if err := checkModelShape(10, Config{EmbeddingDim: 4, Hidden: 1 << 22, Body: LSTMBody}, 100); !errors.Is(err, ErrArtifactCorrupt) {
		t.Fatalf("huge hidden dim: want ErrArtifactCorrupt, got %v", err)
	}
	if err := checkModelShape(4, Config{EmbeddingDim: 3, Hidden: 2, Body: GRUBody}, 4096); err != nil {
		t.Fatalf("plausible shape rejected: %v", err)
	}
}

// TestRankerEngineIsDijkstra: Artifact.NewRanker's Engine answers exactly
// what spath.Dijkstra answers under the length metric — the same edges and
// the same cost bits, and ErrNoPath for the same pairs — on a graph with
// one-way streets and a vertex nothing reaches, and it returns the
// context's error when the context is canceled.
func TestRankerEngineIsDijkstra(t *testing.T) {
	const rows, cols = 5, 6
	b := roadnet.NewBuilder(rows*cols+1, 4*rows*cols)
	for i := 0; i <= rows*cols; i++ {
		b.AddVertex(geo.Point{Lon: 10 + 0.003*float64(i%cols), Lat: 57 + 0.002*float64(i/cols)})
	}
	at := func(r, c int) roadnet.VertexID { return roadnet.VertexID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c+1 < cols; c++ {
			// Rows alternate direction, as one-way streets do.
			if r%2 == 0 {
				b.AddEdge(at(r, c), at(r, c+1), roadnet.Residential)
			} else {
				b.AddEdge(at(r, c+1), at(r, c), roadnet.Secondary)
			}
		}
	}
	for r := 0; r+1 < rows; r++ {
		for c := 0; c < cols; c++ {
			if c%3 == 1 {
				b.AddEdge(at(r+1, c), at(r, c), roadnet.Residential)
			} else {
				b.AddBidirectional(at(r, c), at(r+1, c), roadnet.Residential)
			}
		}
	}
	g := b.Build() // vertex rows*cols has no edges
	m, err := New(g.NumVertices(), Config{EmbeddingDim: 2, Hidden: 2, Variant: PRA1, Body: MeanPoolBody, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	engine := (&Artifact{Graph: g, Model: m}).NewRanker().Engine
	if engine == nil {
		t.Fatal("Artifact.NewRanker left Engine nil")
	}
	asymmetric, unreachable := 0, 0
	for src := range g.NumVertices() {
		for dst := range g.NumVertices() {
			s, d := roadnet.VertexID(src), roadnet.VertexID(dst)
			want, werr := spath.Dijkstra(g, s, d, spath.ByLength)
			got, gerr := engine.ShortestCtx(context.Background(), s, d)
			if werr != gerr {
				t.Fatalf("%d->%d: engine err %v, Dijkstra err %v", s, d, gerr, werr)
			}
			if werr != nil {
				unreachable++
				continue
			}
			if !slices.Equal(got.Edges, want.Edges) || !slices.Equal(got.Vertices, want.Vertices) ||
				math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
				t.Fatalf("%d->%d: engine %v cost %x, Dijkstra %v cost %x", s, d,
					got.Edges, math.Float64bits(got.Cost), want.Edges, math.Float64bits(want.Cost))
			}
			if back, err := spath.Dijkstra(g, d, s, spath.ByLength); err == nil && back.Cost != want.Cost {
				asymmetric++
			}
		}
	}
	if asymmetric == 0 || unreachable == 0 {
		t.Fatalf("the graph tests too little: %d asymmetric and %d unreachable pairs", asymmetric, unreachable)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := engine.ShortestCtx(ctx, 0, at(rows-1, cols-1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context: err = %v, want context.Canceled", err)
	}
}

// The committed files that older builds wrote, each with its model's
// fingerprint as the writing binary computed it (6x6 world, M 4, hidden 4;
// the same training run, so the same fingerprint):
//   - retiredPrepFixture, version 3: the gob payload still carried a Prep
//     section beside the raw hierarchy arrays, and an Embeddings section;
//   - chSectionFixture, version 4: the raw section holds the graph's 8
//     arrays and a contraction hierarchy's 12.
const (
	retiredPrepFixture     = "testdata/v3_prep_section.prart"
	retiredPrepFingerprint = "48f2bc011f1b34c54ad353f9ee1a0d746f05e53b929eb4546d067acc751d51e9"
	chSectionFixture       = "testdata/v4_ch_section.prart"
	chSectionFingerprint   = "48f2bc011f1b34c54ad353f9ee1a0d746f05e53b929eb4546d067acc751d51e9"
)

// rawArrayCount returns the array count of a version-4 file's raw
// directory.
func rawArrayCount(t *testing.T, data []byte) uint32 {
	t.Helper()
	payload, err := DecodeFrame(data, artifactMagic, artifactVersion)
	if err != nil {
		t.Fatal(err)
	}
	dir := data[align8(FrameHeaderLen+len(payload)):]
	return binary.NativeEndian.Uint32(dir[12:16])
}

// requireLoadsLikeResave checks an older build's file: under both loaders
// it keeps the model fingerprint its writer computed, and it ranks
// bit-identically to the same artifact re-saved by this build, which must
// be smaller (the retired sections are dropped) and keep lineage,
// candidates and model config. Fingerprints are what WAL replay and a
// bundle's shard map compare against.
func requireLoadsLikeResave(t *testing.T, fixture, fingerprint string) {
	t.Helper()
	old, err := LoadArtifactFile(fixture)
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	resaved := filepath.Join(t.TempDir(), "resaved.prart")
	if err := SaveArtifactFile(resaved, old); err != nil {
		t.Fatalf("re-save: %v", err)
	}
	oldData, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	newData, err := os.ReadFile(resaved)
	if err != nil {
		t.Fatal(err)
	}
	if len(newData) >= len(oldData) {
		t.Fatalf("re-saved artifact is %d bytes, the fixture %d: the retired sections were not dropped", len(newData), len(oldData))
	}
	if n := rawArrayCount(t, newData); n != rawGraphArrayCount {
		t.Fatalf("re-saved raw section holds %d arrays, want %d", n, rawGraphArrayCount)
	}
	ref, err := LoadArtifactFile(resaved)
	if err != nil {
		t.Fatalf("load re-saved: %v", err)
	}
	if ref.Lineage != old.Lineage || ref.Candidates != old.Candidates || ref.Model.Config() != old.Model.Config() {
		t.Fatalf("re-saved header %+v %+v %+v, the fixture's %+v %+v %+v",
			ref.Lineage, ref.Candidates, ref.Model.Config(), old.Lineage, old.Candidates, old.Model.Config())
	}

	rankings := func(a *Artifact) []string {
		r := a.NewRanker()
		var out []string
		n := a.Graph.NumVertices()
		for i := 0; i < 12; i++ {
			src, dst := roadnet.VertexID(i*7%n), roadnet.VertexID((i*19+n/2)%n)
			resp, err := r.Rank(context.Background(), RankRequest{Src: src, Dst: dst})
			if err != nil {
				out = append(out, fmt.Sprintf("%d->%d: %v", src, dst, err))
				continue
			}
			for _, p := range resp.Paths {
				out = append(out, fmt.Sprintf("%d->%d: %v %x %x", src, dst, p.Path.Edges,
					math.Float64bits(p.Path.Cost), math.Float64bits(p.Score)))
			}
		}
		return out
	}
	want := rankings(ref)
	if len(want) < 12 {
		t.Fatalf("only %d ranked lines for 12 queries", len(want))
	}
	for name, load := range map[string]func(string) (*Artifact, error){
		"heap": LoadArtifactFile, "mapped": LoadArtifactFileMapped,
	} {
		got, err := load(fixture)
		if err != nil {
			t.Fatalf("%s load: %v", name, err)
		}
		if fp, err := got.Model.FingerprintHex(); err != nil || fp != fingerprint {
			t.Fatalf("%s: fixture model fingerprint %s (err %v), written as %s", name, fp, err, fingerprint)
		}
		if have := rankings(got); !slices.Equal(have, want) {
			t.Fatalf("%s: fixture ranks differently from its re-saved copy:\n%v\nvs\n%v", name, have, want)
		}
		if err := got.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestArtifactLoadsRetiredPrepSection: a version-3 file written with the
// retired Prep and Embeddings gob sections still loads — gob skips the
// fields the payload struct no longer has, and the raw hierarchy arrays
// are skipped — as requireLoadsLikeResave demands.
func TestArtifactLoadsRetiredPrepSection(t *testing.T) {
	data, err := os.ReadFile(retiredPrepFixture)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := DecodeFrame(data, artifactMagic, gobArtifactVersion)
	if err != nil {
		t.Fatal(err)
	}
	var retired struct{ Embeddings []byte }
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&retired); err != nil || len(retired.Embeddings) == 0 {
		t.Fatalf("fixture carries no embeddings section (%d bytes, err %v)", len(retired.Embeddings), err)
	}
	requireLoadsLikeResave(t, retiredPrepFixture, retiredPrepFingerprint)
}

// TestArtifactLoadsCHSection: a version-4 file whose raw directory lists a
// contraction hierarchy's 12 arrays after the graph's 8 loads with those
// arrays skipped, as requireLoadsLikeResave demands.
func TestArtifactLoadsCHSection(t *testing.T) {
	data, err := os.ReadFile(chSectionFixture)
	if err != nil {
		t.Fatal(err)
	}
	if n := rawArrayCount(t, data); n != rawGraphArrayCount+rawCHArrayCount {
		t.Fatalf("fixture's raw section holds %d arrays, want 8 graph + 12 hierarchy", n)
	}
	requireLoadsLikeResave(t, chSectionFixture, chSectionFingerprint)
}

// TestArtifactRejectsCorruptCHSection: the heap loader's raw digest still
// covers the skipped hierarchy arrays, so a flipped byte among them is
// ErrArtifactCorrupt; and a raw directory whose array count is neither 8
// nor 20 is ErrArtifactCorrupt under both loaders, even with a digest and
// checksum that match.
func TestArtifactRejectsCorruptCHSection(t *testing.T) {
	fixture, err := os.ReadFile(chSectionFixture)
	if err != nil {
		t.Fatal(err)
	}
	mangled := bytes.Clone(fixture)
	mangled[len(mangled)-7] ^= 0x40 // inside the last hierarchy array
	if _, err := LoadArtifact(bytes.NewReader(mangled)); !errors.Is(err, ErrArtifactCorrupt) {
		t.Fatalf("flipped hierarchy byte: want ErrArtifactCorrupt, got %v", err)
	}

	var fresh bytes.Buffer
	if err := SaveArtifact(&fresh, smallArtifact(t, 2)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, data := range map[string][]byte{"fresh": fresh.Bytes(), "fixture": fixture} {
		payload, err := DecodeFrame(data, artifactMagic, artifactVersion)
		if err != nil {
			t.Fatal(err)
		}
		countAt := align8(FrameHeaderLen+len(payload)) + 12
		for _, n := range []uint32{0, 7, 9, 19, 21, 1 << 31} {
			mut := bytes.Clone(data)
			binary.NativeEndian.PutUint32(mut[countAt:], n)
			mut, ok := resealArtifact(mut)
			if !ok {
				t.Fatal("reseal failed")
			}
			if _, err := LoadArtifact(bytes.NewReader(mut)); !errors.Is(err, ErrArtifactCorrupt) {
				t.Fatalf("%s, %d arrays, heap: want ErrArtifactCorrupt, got %v", name, n, err)
			}
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.prart", name, n))
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			if a, err := LoadArtifactFileMapped(path); !errors.Is(err, ErrArtifactCorrupt) {
				if a != nil {
					a.Close()
				}
				t.Fatalf("%s, %d arrays, mapped: want ErrArtifactCorrupt, got %v", name, n, err)
			}
		}
	}
}

// TestLoadedFingerprintIsTheReencode: a loaded model's fingerprint is the
// hash of the params bytes the loader read, and it equals
// nn.ParamsFingerprint's re-encode of the loaded weights, for an artifact
// this build writes (heap and mapped loads) and for the committed artifact
// an older build wrote through encoding/gob. A stream that is not one
// canonical message is fingerprinted by re-encoding, and weights written
// after the load drop the loaded fingerprint and the saved stream.
func TestLoadedFingerprintIsTheReencode(t *testing.T) {
	m, g := gobHistoryModel(t)
	path := t.TempDir() + "/fresh.prart"
	if err := SaveArtifactFile(path, &Artifact{Graph: g, Model: m}); err != nil {
		t.Fatal(err)
	}
	check := func(name string, loaded *Model) {
		t.Helper()
		fp := loaded.loadedFP.Load()
		if fp == nil {
			t.Fatalf("%s: no fingerprint taken from the loaded bytes", name)
		}
		want, err := nn.ParamsFingerprint(loaded.params)
		if err != nil {
			t.Fatal(err)
		}
		if *fp != want {
			t.Fatalf("%s: loaded bytes hash to %x, the re-encode to %x", name, *fp, want)
		}
	}
	heap, err := LoadArtifactFile(path)
	if err != nil {
		t.Fatal(err)
	}
	check("fresh artifact", heap.Model)
	if fp, err := heap.Model.FingerprintHex(); err != nil || fp != freshFingerprint {
		t.Fatalf("fresh artifact fingerprint %s (%v), want %s", fp, err, freshFingerprint)
	}
	mapped, err := LoadArtifactFileMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	check("fresh artifact, mapped", mapped.Model)
	old, err := LoadArtifactFile(retiredPrepFixture)
	if err != nil {
		t.Fatal(err)
	}
	check("committed artifact", old.Model)

	// One byte after the value message: the stream still decodes, but its
	// hash is not the weights' fingerprint.
	params, err := nn.MarshalParams(m.params)
	if err != nil {
		t.Fatal(err)
	}
	long, err := LoadModel(g.NumVertices(), m.Config(), append(params, 0))
	if err != nil {
		t.Fatal(err)
	}
	if long.loadedFP.Load() != nil {
		t.Fatal("a stream with a trailing byte was taken as canonical")
	}
	if fp, err := long.FingerprintHex(); err != nil || fp != freshFingerprint {
		t.Fatalf("re-encoded fingerprint %s (%v), want %s", fp, err, freshFingerprint)
	}

	// Loading other weights replaces the loaded fingerprint's weights.
	other, err := New(g.NumVertices(), Config{EmbeddingDim: 4, Hidden: 4, Variant: PRA2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := other.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := heap.Model.Save(&saved); err != nil { // caches the stream
		t.Fatal(err)
	}
	if err := heap.Model.Load(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := heap.Model.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	want, err := other.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("after loading other weights the fingerprint is %x, want %x", got, want)
	}
	var again, ref bytes.Buffer
	if err := heap.Model.Save(&again); err != nil {
		t.Fatal(err)
	}
	if err := other.Save(&ref); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), ref.Bytes()) || bytes.Equal(again.Bytes(), saved.Bytes()) {
		t.Fatal("Save after a load wrote the stream of the weights before it")
	}
}

// pinnedArtifactSum is the SHA-256 of pinnedArtifact's file.
const pinnedArtifactSum = "9fa059180009c430d9b23da9942c3cbb8f74aad63170e6a6178a99adefdee06d"

// pinnedArtifact is gobHistoryModel's model and world with every header
// field set.
func pinnedArtifact(t *testing.T) *Artifact {
	t.Helper()
	m, g := gobHistoryModel(t)
	return &Artifact{
		Graph:      g,
		Model:      m,
		Candidates: dataset.Config{Strategy: dataset.DTkDI, K: 5, Threshold: 0.8, MaxProbe: 40, IncludeTruth: true},
		Lineage: Lineage{
			Generation: 2, Parent: "aa11", TrainedOn: 7, TotalObserved: 19, Note: "stream",
			DataRoot: "cc33", ChainRoot: "dd44",
		},
		Shard: &ShardInfo{Index: 1, Parts: 2, Boundary: []roadnet.VertexID{3, 8}, EdgeGlobal: []roadnet.EdgeID{0, 4, 9}},
	}
}

// TestArtifactBytesPinned: every byte of an artifact file is fixed by the
// artifact, whatever the process encoded before, so a pinned artifact
// hashes the same in every run and every binary.
func TestArtifactBytesPinned(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveArtifact(&buf, pinnedArtifact(t)); err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != pinnedArtifactSum {
		t.Fatalf("artifact file hashes to %x, pinned %s", sum, pinnedArtifactSum)
	}
}

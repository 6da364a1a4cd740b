package pathrank

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
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

// TestArtifactRejectsVersionMismatch: this build writes format 5 and also
// reads format 4, the one before it. Every other version (3, whose gob
// payload older builds wrote; the retired 1 and 2; an unknown future one)
// is refused with ErrArtifactVersion under both loaders, though its frame
// checksum matches, with a message that says what to do about it.
func TestArtifactRejectsVersionMismatch(t *testing.T) {
	art := trainedArtifact(t)
	var buf bytes.Buffer
	if err := SaveArtifact(&buf, art); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, v := range []uint32{1, 2, 3, artifactVersion + 41} {
		path := filepath.Join(dir, fmt.Sprintf("v%d.prart", v))
		if err := os.WriteFile(path, reframed(buf.Bytes(), v), 0o644); err != nil {
			t.Fatal(err)
		}
		for name, load := range map[string]func(string) (*Artifact, error){
			"heap": LoadArtifactFile, "mapped": LoadArtifactFileMapped,
		} {
			a, err := load(path)
			if a != nil {
				a.Close()
			}
			if !errors.Is(err, ErrArtifactVersion) {
				t.Fatalf("version %d, %s: want ErrArtifactVersion, got %v", v, name, err)
			}
			if msg := err.Error(); !strings.Contains(msg, "retrain") || !strings.Contains(msg, `docs/OPERATIONS.md "Files from older builds"`) {
				t.Fatalf("version %d, %s: error does not name the fix: %v", v, name, err)
			}
		}
	}
}

// reframed returns the artifact image data under a frame header of
// version v whose checksum matches the payload.
func reframed(data []byte, v uint32) []byte {
	plen := binary.BigEndian.Uint64(data[44:52])
	header := EncodeFrame(artifactMagic, v, data[FrameHeaderLen:FrameHeaderLen+plen])
	return append(header[:], data[FrameHeaderLen:]...)
}

// TestArtifactRejectsCorruption: corruption anywhere in a file is
// ErrArtifactCorrupt under the heap loader, and in the payload or the
// params stream under the mapped loader too, which verifies the params
// digest as the heap loader does. Neither returns an artifact.
func TestArtifactRejectsCorruption(t *testing.T) {
	art := trainedArtifact(t)
	var buf bytes.Buffer
	if err := SaveArtifact(&buf, art); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	l, ok := layoutOf(valid)
	if !ok || l.version != artifactVersion {
		t.Fatal("SaveArtifact did not write a version-5 image")
	}
	dir := t.TempDir()
	// both loads data under both loaders, or under the heap loader alone
	// when the damage is in the arrays the mapped loader trusts.
	both := func(name string, data []byte, mapped bool) {
		t.Helper()
		if a, err := LoadArtifact(bytes.NewReader(data)); !errors.Is(err, ErrArtifactCorrupt) || a != nil {
			t.Errorf("%s, heap: want ErrArtifactCorrupt and no artifact, got %v", name, err)
		}
		if !mapped {
			return
		}
		path := filepath.Join(dir, "corrupt.prart")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if a, err := LoadArtifactFileMapped(path); !errors.Is(err, ErrArtifactCorrupt) {
			if a != nil {
				a.Close()
			}
			t.Errorf("%s, mapped: want ErrArtifactCorrupt, got %v", name, err)
		}
	}

	// One flipped bit anywhere must be caught: the header checksum covers
	// the payload, the digests inside it the params stream and everything
	// after it.
	for _, c := range []struct {
		name   string
		off    int
		mapped bool
	}{
		{"payload", FrameHeaderLen + payloadPrefixLen + 3, true},
		{"first params", l.params, true},
		{"middle params", (l.params + l.rawFrom) / 2, true},
		{"last params", l.rawFrom - 1, true},
		{"raw directory", align8(l.rawFrom) + rawDirHeaderLen + 3, false},
		{"last array", len(valid) - 1, false},
	} {
		data := bytes.Clone(valid)
		data[c.off] ^= 0x40
		both("flipped "+c.name+" byte", data, c.mapped)
	}

	// Truncations, in the payload, the params and the raw section: must be
	// reported as corrupt, not an EOF panic.
	for _, n := range []int{(FrameHeaderLen + l.params) / 2, (l.params + l.rawFrom) / 2, l.rawFrom, len(valid) - 9} {
		both(fmt.Sprintf("truncated to %d bytes", n), valid[:n], true)
	}

	// A params length past the end of the file, and a digest that does not
	// match the stream, each under a payload whose checksum matches.
	reframe := func(data []byte) []byte {
		h := EncodeFrame(artifactMagic, artifactVersion, data[FrameHeaderLen:l.params])
		copy(data, h[:])
		return data
	}
	long := bytes.Clone(valid)
	binary.BigEndian.PutUint64(long[FrameHeaderLen+2*sha256.Size:], uint64(len(valid)-l.params+1))
	both("params length past EOF", reframe(long), true)
	digest := bytes.Clone(valid)
	digest[FrameHeaderLen+sha256.Size+5] ^= 0x01
	both("mismatched params digest", reframe(digest), true)

	// An absurd length field must not cause a huge allocation attempt.
	data := bytes.Clone(valid)
	binary.BigEndian.PutUint64(data[44:52], 1<<62)
	both("oversized payload length", data, true)
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

// The committed files of the format before this one, each with its
// model's fingerprint as the writing binary computed it (6x6 world, M 4,
// hidden 4):
//   - chSectionFixture, version 4: the raw section holds the graph's 8
//     arrays and a contraction hierarchy's 12;
//   - plainV4Fixture, version 4: the graph's 8 arrays, the params stream
//     inside the checksummed payload. The same training run wrote both,
//     so they share one fingerprint.
const (
	chSectionFixture     = "testdata/v4_ch_section.prart"
	chSectionFingerprint = "48f2bc011f1b34c54ad353f9ee1a0d746f05e53b929eb4546d067acc751d51e9"
	plainV4Fixture       = "testdata/v4_plain.prart"
	plainV4Fingerprint   = "48f2bc011f1b34c54ad353f9ee1a0d746f05e53b929eb4546d067acc751d51e9"
)

// rawArrayCount returns the array count of a version-5 or version-4
// file's raw directory.
func rawArrayCount(t *testing.T, data []byte) uint32 {
	t.Helper()
	dir := data[rawStartOf(t, data):]
	return binary.NativeEndian.Uint32(dir[12:16])
}

// requireLoadsLikeResave checks an older build's file: under both loaders
// it keeps the model fingerprint its writer computed, and it ranks
// bit-identically to the same artifact re-saved by this build, which must
// be a version-5 file of the graph's 8 arrays, keep lineage, candidates
// and model config, and, when the fixture carries retired sections, be
// smaller (they are dropped). Fingerprints are what WAL replay and a
// bundle's shard map compare against.
func requireLoadsLikeResave(t *testing.T, fixture, fingerprint string, retired bool) {
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
	if retired && len(newData) >= len(oldData) {
		t.Fatalf("re-saved artifact is %d bytes, the fixture %d: the retired sections were not dropped", len(newData), len(oldData))
	}
	if v := binary.BigEndian.Uint32(newData[8:12]); v != artifactVersion {
		t.Fatalf("re-saved artifact has version %d, want %d", v, artifactVersion)
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
	requireLoadsLikeResave(t, chSectionFixture, chSectionFingerprint, true)
}

// TestArtifactLoadsPlainV4: a version-4 file of the graph's 8 arrays, the
// params inside the checksummed payload, keeps the fingerprint the build
// that wrote it computed under both loaders, and ranks as its version-5
// re-save does.
func TestArtifactLoadsPlainV4(t *testing.T) {
	data, err := os.ReadFile(plainV4Fixture)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.BigEndian.Uint32(data[8:12]); v != jsonArtifactVersion {
		t.Fatalf("fixture has version %d, want %d", v, jsonArtifactVersion)
	}
	if n := rawArrayCount(t, data); n != rawGraphArrayCount {
		t.Fatalf("fixture's raw section holds %d arrays, want the graph's 8", n)
	}
	requireLoadsLikeResave(t, plainV4Fixture, plainV4Fingerprint, false)
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
		countAt := rawStartOf(t, data) + 12
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
// this build writes (heap and mapped loads) and for the committed
// version-4 artifact an earlier build wrote. Weights written after the
// load drop the loaded fingerprint and the saved stream.
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
	old, err := LoadArtifactFile(plainV4Fixture)
	if err != nil {
		t.Fatal(err)
	}
	check("committed artifact", old.Model)

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
const pinnedArtifactSum = "0e8dc124b1c0b4c9b23c295ef0e06c067ef68b2edbb0259f772b1707041061b4"

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

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

// TestArtifactPrepRoundTrip checks that the contraction hierarchy survives
// a save/load cycle through either loader, wired as the ranker's engine,
// and that the restored artifact ranks bit-identically (paths and scores).
func TestArtifactPrepRoundTrip(t *testing.T) {
	art := trainedArtifact(t)
	art.Prep = spath.BuildPrep(art.Graph, spath.PrepConfig{})
	path := filepath.Join(t.TempDir(), "model.prart")
	if err := SaveArtifactFile(path, art); err != nil {
		t.Fatalf("save: %v", err)
	}
	src := roadnet.VertexID(0)
	dst := roadnet.VertexID(art.Graph.NumVertices() - 1)
	for name, load := range map[string]func(string) (*Artifact, error){
		"heap": LoadArtifactFile, "mapped": LoadArtifactFileMapped,
	} {
		got, err := load(path)
		if err != nil {
			t.Fatalf("%s load: %v", name, err)
		}
		if got.Prep == nil || got.Prep.CH == nil {
			t.Fatalf("%s: prep not restored: %+v", name, got.Prep)
		}
		if got.Prep.CH.NumShortcuts() != art.Prep.CH.NumShortcuts() {
			t.Fatalf("%s: shortcuts %d != %d", name, got.Prep.CH.NumShortcuts(), art.Prep.CH.NumShortcuts())
		}
		// The restored ranker carries the restored prep's engine.
		if r := got.NewRanker(); r.Engine == nil {
			t.Fatalf("%s: restored ranker engine = %v, want CH", name, r.Engine)
		}
		wantResp, err1 := art.NewRanker().Rank(context.Background(), RankRequest{Src: src, Dst: dst})
		haveResp, err2 := got.NewRanker().Rank(context.Background(), RankRequest{Src: src, Dst: dst})
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: query errs: %v vs %v", name, err1, err2)
		}
		want, have := wantResp.Paths, haveResp.Paths
		if len(want) != len(have) {
			t.Fatalf("%s: ranked %d vs %d paths", name, len(have), len(want))
		}
		for i := range want {
			if want[i].Score != have[i].Score || !want[i].Path.Equal(have[i].Path) {
				t.Fatalf("%s: ranked path %d differs after round trip", name, i)
			}
		}
		if err := got.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestArtifactRejectsCorruptPrep checks that mangled CH bytes fail
// digest-first, and that a digest-valid CH a query could not run safely —
// a shortcut whose rank-invariant violation could make unpacking recurse
// forever, a missing half-arc, an arc filed under the wrong vertex — is
// rejected by the CH validator at load time rather than crashing or
// hanging a query.
func TestArtifactRejectsCorruptPrep(t *testing.T) {
	art := trainedArtifact(t)
	art.Prep = spath.BuildPrep(art.Graph, spath.PrepConfig{})
	save := func() []byte {
		var buf bytes.Buffer
		if err := SaveArtifact(&buf, art); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	data := save()
	data[len(data)-7] ^= 0x40 // inside the last CH array of the raw tail
	if _, err := LoadArtifact(bytes.NewReader(data)); !errors.Is(err, ErrArtifactCorrupt) {
		t.Fatalf("want ErrArtifactCorrupt, got %v", err)
	}

	// RawData aliases the hierarchy's arrays, so edits here are what the
	// next save writes (with a matching digest).
	d := art.Prep.CH.RawData()
	sc := slices.IndexFunc(d.ArcMid, func(mid int32) bool { return mid >= 0 })
	if sc < 0 {
		t.Fatal("no shortcut to corrupt")
	}
	savedMid := d.ArcMid[sc]
	top := int32(slices.Index(d.Order, int32(len(d.Order)-1)))
	hasArc := func(from, to int32) bool {
		_, ok := slices.BinarySearch(d.IdxKeys, int64(from)<<32|int64(uint32(to)))
		return ok
	}
	from, to := d.ArcFrom[sc], d.ArcTo[sc]
	dangling := int32(-1)
	for v, r := range d.Order {
		if r < d.Order[from] && r < d.Order[to] && !hasArc(from, int32(v)) {
			dangling = int32(v)
			break
		}
	}
	if dangling < 0 {
		t.Fatal("no low-ranked vertex without a half-arc")
	}
	for name, mid := range map[string]int32{
		"rank-violating": top,      // order[mid] above both endpoints
		"dangling":       dangling, // rank invariant holds, half-arc missing
	} {
		d.ArcMid[sc] = mid
		if _, err := LoadArtifact(bytes.NewReader(save())); !errors.Is(err, ErrArtifactCorrupt) {
			t.Fatalf("%s shortcut: want ErrArtifactCorrupt, got %v", name, err)
		}
	}
	d.ArcMid[sc] = savedMid

	// File an upward arc under another vertex's list: reconstruction would
	// walk its ArcFrom to a vertex the search never left.
	last := len(d.UpArcs) - 1
	d.UpArcs[0], d.UpArcs[last] = d.UpArcs[last], d.UpArcs[0]
	if _, err := LoadArtifact(bytes.NewReader(save())); !errors.Is(err, ErrArtifactCorrupt) {
		t.Fatalf("misfiled adjacency: want ErrArtifactCorrupt, got %v", err)
	}
	d.UpArcs[0], d.UpArcs[last] = d.UpArcs[last], d.UpArcs[0]
	if _, err := LoadArtifact(bytes.NewReader(save())); err != nil {
		t.Fatalf("restored CH rejected: %v", err)
	}
}

// retiredPrepFixture is a version-3 artifact (6x6 world, M 4, hidden 4)
// written while the gob payload still carried a Prep section beside the
// raw CH arrays, and an Embeddings section; retiredPrepFingerprint is its
// model's fingerprint as the writing binary computed it.
const (
	retiredPrepFixture     = "testdata/v3_prep_section.prart"
	retiredPrepFingerprint = "48f2bc011f1b34c54ad353f9ee1a0d746f05e53b929eb4546d067acc751d51e9"
)

// TestArtifactLoadsRetiredPrepSection checks that a file written with the
// retired Prep and Embeddings gob sections still loads under both loaders
// — gob skips the fields the payload struct no longer has — with its
// contraction hierarchy, and ranks bit-identically to the same artifact
// re-saved without the sections; and that its model fingerprint is still
// the one the writing binary computed, which WAL replay and a bundle's
// shard map compare against.
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
	old, err := LoadArtifactFile(retiredPrepFixture)
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	if fp, err := old.Model.FingerprintHex(); err != nil || fp != retiredPrepFingerprint {
		t.Fatalf("fixture model fingerprint %s (err %v), written as %s", fp, err, retiredPrepFingerprint)
	}
	resaved := filepath.Join(t.TempDir(), "resaved.prart")
	if err := SaveArtifactFile(resaved, old); err != nil {
		t.Fatalf("re-save: %v", err)
	}
	oldInfo, err := os.Stat(retiredPrepFixture)
	if err != nil {
		t.Fatal(err)
	}
	newInfo, err := os.Stat(resaved)
	if err != nil {
		t.Fatal(err)
	}
	if newInfo.Size() >= oldInfo.Size() {
		t.Fatalf("re-saved artifact is %d bytes, the fixture %d: the section was not dropped", newInfo.Size(), oldInfo.Size())
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
		if r.Engine == nil {
			t.Fatalf("ranker engine = %v, want the artifact's CH", r.Engine)
		}
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
		got, err := load(retiredPrepFixture)
		if err != nil {
			t.Fatalf("%s load: %v", name, err)
		}
		if got.Prep == nil || got.Prep.CH == nil {
			t.Fatalf("%s: fixture loaded without its contraction hierarchy", name)
		}
		if have := rankings(got); !slices.Equal(have, want) {
			t.Fatalf("%s: fixture ranks differently from its re-saved copy:\n%v\nvs\n%v", name, have, want)
		}
		if err := got.Close(); err != nil {
			t.Fatal(err)
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

package pathrank

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pathrank/internal/dataset"
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
		Embeddings: emb,
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
	if got.Embeddings == nil || got.Embeddings.Dim != art.Embeddings.Dim {
		t.Fatal("embeddings not round-tripped")
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

// artifactWithoutEmbeddings proves the embeddings section is optional.
func TestArtifactWithoutEmbeddings(t *testing.T) {
	art := trainedArtifact(t)
	art.Embeddings = nil
	var buf bytes.Buffer
	if err := SaveArtifact(&buf, art); err != nil {
		t.Fatal(err)
	}
	got, err := LoadArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Embeddings != nil {
		t.Fatal("expected nil embeddings after reload")
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

// TestArtifactRejectsVersionMismatch: format 3 is the only format. The
// retired versions 1 and 2 and an unknown future one are all refused with
// ErrArtifactVersion and a message that says what to do about it.
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
	// the gob payload, the raw digest inside it everything after.
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
// raw CH arrays; retiredPrepFingerprint is its model's fingerprint as the
// writing binary computed it.
const (
	retiredPrepFixture     = "testdata/v3_prep_section.prart"
	retiredPrepFingerprint = "48f2bc011f1b34c54ad353f9ee1a0d746f05e53b929eb4546d067acc751d51e9"
)

// TestArtifactLoadsRetiredPrepSection checks that a file written with the
// retired Prep gob section still loads under both loaders — gob skips the
// field the payload struct no longer has — with its contraction hierarchy,
// and ranks bit-identically to the same artifact re-saved without the
// section; and that its model fingerprint is still the one the writing
// binary computed, which WAL replay and a bundle's shard map compare
// against.
func TestArtifactLoadsRetiredPrepSection(t *testing.T) {
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

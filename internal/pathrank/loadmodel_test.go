package pathrank

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"pathrank/internal/allocpin"
	"pathrank/internal/dataset"
	"pathrank/internal/nn"
	"pathrank/internal/roadnet"
)

// The live-loop fixture's generation-0 artifact (see internal/stream's
// liveFixtureBase) and its model's fingerprint as the build that wrote it
// computed it.
const (
	liveBaseFixture     = "../stream/testdata/live/base.prart"
	liveBaseFingerprint = "ee80da5dd4dc409c646c066c133eb91f745d059ae7f24c4de3152150fb87bd86"
)

// gobParam is the params stream's element as encoding/gob decodes it:
// gob matches fields by name, whatever the type is called.
type gobParam struct {
	Name       string
	Rows, Cols int
	W          []float64
	Frozen     bool
}

// TestFixturesDecodeLikeGob: the committed files earlier builds wrote
// keep their pinned model fingerprints under both loaders, heap and
// mapped, both as their params stream's hash and re-encoded from the
// loaded weights; and encoding/gob decodes their params streams to the
// weights the hand decoder loaded, bit for bit.
func TestFixturesDecodeLikeGob(t *testing.T) {
	for fixture, pin := range map[string]string{
		chSectionFixture: chSectionFingerprint,
		plainV4Fixture:   plainV4Fingerprint,
		liveBaseFixture:  liveBaseFingerprint,
	} {
		data, err := os.ReadFile(fixture)
		if err != nil {
			t.Fatal(err)
		}
		version := binary.BigEndian.Uint32(data[8:12])
		payload, err := DecodeFrame(data, artifactMagic, version)
		if err != nil {
			t.Fatal(err)
		}
		wire, err := decodePayload(data, payload, version)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(wire.Params); hex.EncodeToString(sum[:]) != pin {
			t.Fatalf("%s: params stream hash %x, pinned %s", fixture, sum, pin)
		}
		var want []gobParam
		if err := gob.NewDecoder(bytes.NewReader(wire.Params)).Decode(&want); err != nil {
			t.Fatalf("%s: gob: %v", fixture, err)
		}
		for name, load := range map[string]func(string) (*Artifact, error){
			"heap": LoadArtifactFile, "mapped": LoadArtifactFileMapped,
		} {
			a, err := load(fixture)
			if err != nil {
				t.Fatalf("%s %s: %v", fixture, name, err)
			}
			requireGobWeights(t, a.Model, want)
			fp, err := a.Model.FingerprintHex()
			re, reErr := nn.ParamsFingerprint(a.Model.params)
			if err != nil || reErr != nil || fp != pin || hex.EncodeToString(re[:]) != pin {
				t.Fatalf("%s %s: fingerprint %s, re-encoded %x (%v, %v); pinned %s", fixture, name, fp, re, err, reErr, pin)
			}
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// requireGobWeights fails t unless m's params are want's, bit for bit.
func requireGobWeights(t *testing.T, m *Model, want []gobParam) {
	t.Helper()
	if len(want) != len(m.params) {
		t.Fatalf("gob decoded %d params, the model has %d", len(want), len(m.params))
	}
	for i, p := range m.params {
		w := want[i]
		if w.Name != p.Name || w.Rows != p.Rows || w.Cols != p.Cols || w.Frozen != p.Frozen || len(w.W) != len(p.W) {
			t.Fatalf("param %d: gob decoded %s(%dx%d) frozen %v, the model holds %s(%dx%d) frozen %v",
				i, w.Name, w.Rows, w.Cols, w.Frozen, p.Name, p.Rows, p.Cols, p.Frozen)
		}
		for j := range p.W {
			if math.Float64bits(w.W[j]) != math.Float64bits(p.W[j]) {
				t.Fatalf("param %d (%s) weight %d: gob %x, loaded %x", i, p.Name, j, math.Float64bits(w.W[j]), math.Float64bits(p.W[j]))
			}
		}
	}
}

// TestLoadRefusesOtherStreams: a params stream gob wrote with other type
// numbers than the pinned preamble's, as builds that encoded their params
// through gob after other types did, and a canonical stream with a byte
// after its value message are refused by loadModel and Model.Load, and,
// inside a version-5 artifact whose digests match them, by both loaders,
// each with an error that names the operations guide.
func TestLoadRefusesOtherStreams(t *testing.T) {
	m, g := gobHistoryModel(t)
	var shifted bytes.Buffer
	enc := gob.NewEncoder(&shifted)
	if err := enc.Encode(struct{ Gen int }{1}); err != nil {
		t.Fatal(err)
	}
	shifted.Reset() // the params stream starts after the earlier type's messages
	wire := make([]gobParam, len(m.params))
	for i, p := range m.params {
		wire[i] = gobParam{p.Name, p.Rows, p.Cols, p.W, p.Frozen}
	}
	if err := enc.Encode(wire); err != nil {
		t.Fatal(err)
	}
	stream, _, err := m.ParamsStream()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, params := range map[string][]byte{
		"other type numbers":     shifted.Bytes(),
		"byte after the message": append(slices.Clip(stream), 0),
	} {
		refused := func(how string, a *Artifact, err error) {
			t.Helper()
			if a != nil {
				a.Close()
			}
			if err == nil || !strings.Contains(err.Error(), `docs/OPERATIONS.md "Files from older builds"`) {
				t.Fatalf("%s, %s: %v, want a refusal that names the operations guide", name, how, err)
			}
		}
		_, err := loadModel(g.NumVertices(), m.Config(), params, nil)
		refused("loadModel", nil, err)
		into, err := m.Clone()
		if err != nil {
			t.Fatal(err)
		}
		refused("Model.Load", nil, into.Load(bytes.NewReader(params)))

		// An artifact whose params digest is the stream's own.
		carrier, err := m.Clone()
		if err != nil {
			t.Fatal(err)
		}
		carrier.stream.Store(&savedStream{b: params, sum: sha256.Sum256(params)})
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "-")+".prart")
		if err := SaveArtifactFile(path, &Artifact{Graph: g, Model: carrier}); err != nil {
			t.Fatal(err)
		}
		a, err := LoadArtifactFile(path)
		refused("heap artifact", a, err)
		a, err = LoadArtifactFileMapped(path)
		refused("mapped artifact", a, err)
	}
}

// TestLoadModelWaitsForHash: loadModel hashes the stream beside the
// decode and returns only once the hash is done, on the error paths too.
// Each of these loads gets the 4 MB params stream of a larger model and a
// digest the stream does not have, so its decode fails at the first
// param's shape while its hash has milliseconds of work left. Only a load
// that waited for the hash can return the digest error instead of the
// decode error. Once the loads return, the goroutine count must also
// come back to what it was before them (the exiting hash goroutines get a
// bounded wait): one stuck in the load still fails.
func TestLoadModelWaitsForHash(t *testing.T) {
	cfg := DefaultConfig()
	big, err := New(4000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := big.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var wrong [sha256.Size]byte
	before := runtime.NumGoroutine()
	for range 100 {
		_, err := loadModel(10, cfg, buf.Bytes(), &wrong)
		if !errors.Is(err, ErrArtifactCorrupt) || !strings.Contains(err.Error(), "does not match its digest") {
			t.Fatalf("load of a stream under a wrong digest: %v, want the digest error", err)
		}
	}
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if after > before {
		t.Fatalf("%d goroutines before 100 failed loads, %d five seconds after", before, after)
	}
}

// TestLoadModelAllocs pins what a load of a small model allocates: its
// weight tensors (no gradients, no optimizer state) and layers, and the
// hash's goroutine. A decode through an intermediate copy of the weights,
// as gob's was, fails it.
func TestLoadModelAllocs(t *testing.T) {
	m, err := New(40, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	allocpin.Pin(t, allocpin.Count{Allocs: 45, Bytes: 12304}, func() {
		if _, err := loadModel(40, smallConfig(), buf.Bytes(), nil); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkLoadModel times loadModel on the served model's shape: the
// benchmark world's 56x56 grid (3,152 vertices) under DefaultConfig.
func BenchmarkLoadModel(b *testing.B) {
	const vertices = 3152
	m, err := New(vertices, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := loadModel(vertices, DefaultConfig(), buf.Bytes(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadArtifactMapped times LoadArtifactFileMapped on the served
// world's artifact: the 56x56 grid (3,152 vertices) with an untrained
// DefaultConfig model, as the serving benchmark saves and maps it.
func BenchmarkLoadArtifactMapped(b *testing.B) {
	cfg := roadnet.DefaultGenConfig()
	cfg.Rows, cfg.Cols, cfg.Seed = 56, 56, 1
	g, err := roadnet.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(g.NumVertices(), DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "world.prart")
	art := &Artifact{Graph: g, Model: m, Candidates: dataset.Config{Strategy: dataset.DTkDI, K: 5, Threshold: 0.8}}
	if err := SaveArtifactFile(path, art); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		a, err := LoadArtifactFileMapped(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

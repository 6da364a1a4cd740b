package stream

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pathrank/internal/geo"
	"pathrank/internal/pathrank"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
	"pathrank/internal/wal"
)

func TestObservationCodecRoundTrip(t *testing.T) {
	o := observation{
		seq: 42,
		path: spath.Path{
			Vertices: []roadnet.VertexID{3, 7, 1, 9},
			Edges:    []roadnet.EdgeID{11, 5, 2},
			Cost:     1234.5625,
		},
	}
	enc := encodeObservation(o)
	got, err := decodeObservation(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.seq != o.seq || !pathEqual(got.path, o.path) {
		t.Fatalf("round trip mismatch: %+v != %+v", got, o)
	}
	// Canonical: encoding the decoded observation reproduces the bytes.
	if string(encodeObservation(got)) != string(enc) {
		t.Fatal("re-encoding is not canonical")
	}
}

func TestObservationCodecRejectsMalformed(t *testing.T) {
	o := observation{
		seq:  7,
		path: spath.Path{Vertices: []roadnet.VertexID{1, 2}, Edges: []roadnet.EdgeID{0}, Cost: 5},
	}
	enc := encodeObservation(o)
	cases := map[string][]byte{
		"empty":       {},
		"short":       enc[:obsHeaderSize-1],
		"wrong type":  append([]byte{walRecRetrain}, enc[1:]...),
		"truncated":   enc[:len(enc)-1],
		"extra bytes": append(append([]byte{}, enc...), 0),
	}
	for name, data := range cases {
		if _, err := decodeObservation(data); err == nil {
			t.Errorf("%s: decode accepted malformed record", name)
		}
	}
	// Edge/vertex count relation: nv must be ne+1.
	bad := append([]byte{}, enc...)
	bad[24]++ // bump ne
	if _, err := decodeObservation(bad); err == nil {
		t.Error("decode accepted ne != nv-1")
	}
}

// pinnedMarker is a retrain marker with every field set, and
// pinnedMarkerSum the SHA-256 of its WAL record.
var pinnedMarker = retrainMarker{
	Generation: 3,
	Parent:     "aa11",
	Result:     "bb22",
	DataRoot:   "cc33",
	ChainRoot:  "dd44",
	WindowSeqs: []int64{1, 2, 5, 9},
	Epochs:     2,
	LR:         0.004,
	ClipNorm:   5,
	LRDecay:    0.9,
	Seed:       17,
}

const pinnedMarkerSum = "05f46b73e542cbc9a4df7b6109d04a93f1a88eea09aad3a815122ae0d72e03bc"

// TestRetrainMarkerRoundTrip: a marker's record is fixed by its content,
// whatever the process encoded before, and decodes back equal.
func TestRetrainMarkerRoundTrip(t *testing.T) {
	m := pinnedMarker
	enc, err := encodeRetrainMarker(m)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(enc); hex.EncodeToString(sum[:]) != pinnedMarkerSum {
		t.Fatalf("marker record hashes to %x, pinned %s: %q", sum, pinnedMarkerSum, enc)
	}
	got, err := decodeRetrainMarker(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip %+v, want %+v", got, m)
	}
	for name, rec := range map[string][]byte{
		"truncated":       enc[:len(enc)-1],
		"tag only":        enc[:1],
		"wrong tag":       {walRecObservation},
		"gob tag":         append([]byte{walRecGobMarker}, enc[1:]...),
		"spaced":          append([]byte{walRecRetrain, ' '}, enc[1:]...),
		"field renamed":   bytes.Replace(enc, []byte(`"Seed"`), []byte(`"seed"`), 1),
		"float respelled": bytes.Replace(enc, []byte(`0.004`), []byte(`0.0040`), 1),
	} {
		if _, err := decodeRetrainMarker(rec); err == nil {
			t.Errorf("%s: decode accepted %q", name, rec)
		}
	}
}

// FuzzRetrainMarker: a crash or a bad disk can leave any bytes in a WAL
// record. Behind the marker tag, the decoder returns a marker or an error
// and never panics, and a marker it accepts re-encodes to the same bytes.
// Behind the gob marker tag of older builds, the log reader refuses every
// body, naming the operations guide. The seeds are the pinned marker, a
// respelling of it, a minimal marker and nothing.
func FuzzRetrainMarker(f *testing.F) {
	enc, err := encodeRetrainMarker(pinnedMarker)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc[1:])
	f.Add(bytes.Replace(enc[1:], []byte(`0.004`), []byte(`4e-3`), 1))
	f.Add([]byte(`{"Generation":1,"WindowSeqs":[1]}`))
	f.Add([]byte{})
	read := (&walLog{}).reader(nil)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := append([]byte{walRecRetrain}, body...)
		if m, err := decodeRetrainMarker(rec); err == nil {
			if again, err := encodeRetrainMarker(m); err != nil || !bytes.Equal(again, rec) {
				t.Fatalf("accepted %q, which re-encodes to %q (%v)", rec, again, err)
			}
		}
		if err := read(1, append([]byte{walRecGobMarker}, body...)); err == nil || !strings.Contains(err.Error(), olderBuildsGuide) {
			t.Fatalf("gob marker %q: %v, want a refusal that names the operations guide", body, err)
		}
	})
}

// olderBuildsGuide is the section of the operations guide that every
// refusal of an older build's file names.
const olderBuildsGuide = `docs/OPERATIONS.md "Files from older builds"`

// The live-loop directory a build of the current formats wrote:
// liveFixtureBase, a version-5 generation-0 artifact of testWorld, and
// liveFixtureWAL, a log of four observations and the retrain marker of
// the generation trained on them. liveFixtureResult and liveFixtureChain
// are that generation's fingerprint and chain root as the writing build
// logged them.
const (
	liveFixtureBase   = "testdata/live/base.prart"
	liveFixtureWAL    = "testdata/live/wal"
	liveFixtureResult = "de3ceeae87a022524eaadb7455f9b4ed5a6cc89181ceb649290cec6cc7de5309"
	liveFixtureChain  = "9c615c74c1907cf99f9d13d0807af490ffd2a67101b0ef4a0107189ec78a909e"
)

// copyLiveWAL copies the fixture's log into a new directory and returns it.
func copyLiveWAL(t *testing.T) string {
	t.Helper()
	walDir := t.TempDir()
	entries, err := os.ReadDir(liveFixtureWAL)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(liveFixtureWAL, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(walDir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return walDir
}

// TestRestartOnLoggedLog: restarted on a committed artifact and log that
// an earlier build wrote, the service re-derives the logged generation to
// the marker's fingerprint and chain root, and Replay does too. The next
// generation logs its marker after the committed one, and Replay of the
// log two builds wrote reaches it.
func TestRestartOnLoggedLog(t *testing.T) {
	walDir := copyLiveWAL(t)
	base, err := pathrank.LoadArtifactFile(liveFixtureBase)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, art *pathrank.Artifact) {
		t.Helper()
		if fp := fingerprint(t, art); fp != liveFixtureResult || art.Lineage.ChainRoot != liveFixtureChain || art.Lineage.Generation != 1 {
			t.Fatalf("%s: generation %d, fingerprint %s, chain root %s; the marker recorded generation 1, %s, %s",
				what, art.Lineage.Generation, fp, art.Lineage.ChainRoot, liveFixtureResult, liveFixtureChain)
		}
	}
	res, err := Replay(walDir, base, 0, nil)
	if err != nil || !res.Verified || res.Generations != 1 {
		t.Fatalf("replay of the fixture log: %+v, %v", res, err)
	}
	check("replay", res.Artifact)

	svc, err := New(base, Config{QueueSize: 16, Workers: 2, WALDir: walDir, Train: pathrank.TrainConfig{Epochs: 1, LR: 0.002, Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	check("restart", svc.Artifact())
	_, trips := testWorld(t)
	ingestAll(t, svc, sampleTrajectories(base, trips[4:8], 850))
	gen2, err := svc.RetrainNow()
	if err != nil {
		t.Fatal(err)
	}
	res, err = Replay(walDir, base, 0, nil)
	if err != nil || !res.Verified || res.Generations != 2 {
		t.Fatalf("replay of the mixed log: %+v, %v", res, err)
	}
	if got, want := fingerprint(t, res.Artifact), fingerprint(t, gen2); got != want {
		t.Fatalf("mixed-log replay reached %.12s, the service trained %.12s", got, want)
	}
}

// TestRefusesGobMarkerLog: a log that holds a gob retrain marker, record
// type 0x02 as older builds wrote it, is refused by Replay and by a
// restart, each naming the record and the operations guide, and the
// refused restart leaves the log as it was.
func TestRefusesGobMarkerLog(t *testing.T) {
	walDir := copyLiveWAL(t)
	base, err := pathrank.LoadArtifactFile(liveFixtureBase)
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(walDir, wal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rec bytes.Buffer
	rec.WriteByte(walRecGobMarker)
	if err := gob.NewEncoder(&rec).Encode(pinnedMarker); err != nil {
		t.Fatal(err)
	}
	idx, err := log.Append(rec.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, walDir)
	want := fmt.Sprintf("stream: WAL record %d is a gob retrain marker (type 0x02)", idx)
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), olderBuildsGuide) {
			t.Fatalf("%s: %v, want an error containing %q and naming the operations guide", what, err, want)
		}
	}
	_, err = Replay(walDir, base, 0, nil)
	refused("replay", err)
	svc, err := New(base, Config{QueueSize: 16, Workers: 2, WALDir: walDir})
	if err == nil {
		svc.Close()
	}
	refused("restart", err)
	if after := dirBytes(t, walDir); !reflect.DeepEqual(after, before) {
		t.Fatal("the refused restart changed the log")
	}
}

// dirBytes returns the contents of every file in dir by name.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

// TestDecodeWALRecordErrors pins the one WAL record reader the live
// service's recovery and Replay share: it sorts records into observations
// and markers, each failure names its record and keeps nothing, and only a
// path foreign to the graph carries the wrong-base hint, which reaches
// Replay's error.
func TestDecodeWALRecordErrors(t *testing.T) {
	b := roadnet.NewBuilder(2, 2)
	b.AddVertex(geo.Point{Lon: 10, Lat: 57})
	b.AddVertex(geo.Point{Lon: 10.001, Lat: 57})
	b.AddBidirectional(0, 1, roadnet.Residential)
	g := b.Build()
	ok := encodeObservation(observation{seq: 7, path: spath.Path{Vertices: []roadnet.VertexID{0, 1}, Edges: []roadnet.EdgeID{0}, Cost: 1}})
	foreign := encodeObservation(observation{seq: 8, path: spath.Path{Vertices: []roadnet.VertexID{0, 5}, Edges: []roadnet.EdgeID{0}, Cost: 1}})
	marker, err := encodeRetrainMarker(retrainMarker{Generation: 1, WindowSeqs: []int64{7}})
	if err != nil {
		t.Fatal(err)
	}

	var l walLog
	read := l.reader(g)
	if err := read(3, ok); err != nil || len(l.obs) != 1 || l.obs[0].seq != 7 || l.pending != 1 {
		t.Fatalf("observation: %+v, %v", l, err)
	}
	if err := read(3, marker); err != nil || len(l.markers) != 1 || l.markers[0].Generation != 1 || l.pending != 0 {
		t.Fatalf("marker: %+v, %v", l, err)
	}
	for _, tc := range []struct {
		name    string
		payload []byte
		want    string
		foreign bool
	}{
		{"empty", nil, "stream: WAL record 3 is empty", false},
		{"unknown type", []byte{0x7f}, "stream: WAL record 3 has unknown type 0x7f", false},
		{"gob marker", []byte{walRecGobMarker}, "stream: WAL record 3 is a gob retrain marker (type 0x02), which this build does not read; see " + olderBuildsGuide, false},
		{"truncated observation", ok[:len(ok)-1], "stream: WAL record 3: ", false},
		{"truncated marker", marker[:1], "stream: WAL record 3: ", false},
		{"foreign observation", foreign, "stream: WAL record 3: stream: observation 8 references vertex 5 outside the graph (2 vertices)", true},
	} {
		err := read(3, tc.payload)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) || strings.HasSuffix(err.Error(), " (wrong base artifact?)") != tc.foreign {
			t.Errorf("%s: err %v, want %q (foreign %v)", tc.name, err, tc.want, tc.foreign)
		}
	}
	if len(l.obs) != 1 || len(l.markers) != 1 {
		t.Fatalf("failed records were kept: %d observations, %d markers", len(l.obs), len(l.markers))
	}

	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][]byte{ok, foreign} {
		if _, err := log.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := pathrank.New(g.NumVertices(), pathrank.Config{EmbeddingDim: 4, Hidden: 4, Body: pathrank.GRUBody, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Replay(dir, &pathrank.Artifact{Graph: g, Model: m}, 0, nil)
	if want := "stream: WAL record 2: stream: observation 8 references vertex 5 outside the graph (2 vertices) (wrong base artifact?)"; err == nil || err.Error() != want {
		t.Fatalf("replay: err %v, want %q", err, want)
	}
}

// pathEqual reports whether two decoded paths are identical, for the
// codec's round-trip checks.
func pathEqual(a, b spath.Path) bool {
	if a.Cost != b.Cost || len(a.Vertices) != len(b.Vertices) || len(a.Edges) != len(b.Edges) {
		return false
	}
	for i := range a.Vertices {
		if a.Vertices[i] != b.Vertices[i] {
			return false
		}
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			return false
		}
	}
	return true
}

package stream

import (
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

func TestRetrainMarkerRoundTrip(t *testing.T) {
	m := retrainMarker{
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
	enc, err := encodeRetrainMarker(m)
	if err != nil {
		t.Fatal(err)
	}
	if enc[0] != walRecRetrain {
		t.Fatalf("marker type byte = 0x%02x", enc[0])
	}
	got, err := decodeRetrainMarker(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != m.Generation || got.Result != m.Result || got.Seed != m.Seed ||
		len(got.WindowSeqs) != len(m.WindowSeqs) || got.WindowSeqs[3] != 9 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, err := decodeRetrainMarker(enc[:1]); err == nil {
		t.Error("decode accepted truncated marker")
	}
	if _, err := decodeRetrainMarker([]byte{walRecObservation}); err == nil {
		t.Error("decode accepted wrong type byte")
	}
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

package pathrank

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"os"
	"testing"

	"pathrank/internal/dataset"
	"pathrank/internal/geo"
	"pathrank/internal/roadnet"
)

// fuzzSeedArtifacts builds and serializes minimal valid artifacts: a
// bare one and a shard.
func fuzzSeedArtifacts(f *testing.F) [][]byte {
	f.Helper()
	b := roadnet.NewBuilder(4, 8)
	v0 := b.AddVertex(geo.Point{Lon: 10.00, Lat: 57.00})
	v1 := b.AddVertex(geo.Point{Lon: 10.01, Lat: 57.00})
	v2 := b.AddVertex(geo.Point{Lon: 10.01, Lat: 57.01})
	b.AddBidirectional(v0, v1, roadnet.Residential)
	b.AddBidirectional(v1, v2, roadnet.Residential)
	b.AddBidirectional(v2, v0, roadnet.Secondary)
	g := b.Build()
	model, err := New(g.NumVertices(), Config{
		EmbeddingDim: 3, Hidden: 2, Variant: PRA2, Body: GRUBody, Seed: 1,
	})
	if err != nil {
		f.Fatal(err)
	}
	bare := Artifact{
		Graph:      g,
		Model:      model,
		Candidates: dataset.Config{Strategy: dataset.TkDI, K: 2},
		Lineage:    Lineage{Note: "fuzz seed"},
	}
	shard := bare
	shard.Shard = &ShardInfo{
		Index: 1, Parts: 2,
		Boundary:   []roadnet.VertexID{v0, v2},
		EdgeGlobal: []roadnet.EdgeID{0, 1, 2, 3, 4, 5},
	}
	var out [][]byte
	for _, art := range []*Artifact{&bare, &shard} {
		var buf bytes.Buffer
		if err := SaveArtifact(&buf, art); err != nil {
			f.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// artifactLayout is where the sections of a version-5 or version-4 image
// start, read from its header fields without verifying anything: the
// params stream starts where the payload ends and, in version 5 only, runs
// to rawFrom, where the bytes RawDigest covers begin.
type artifactLayout struct {
	version         uint32
	params, rawFrom int
}

// layoutOf reports the layout of data, or false when its header fields
// do not fit its length or it is not a version-5 or version-4 image.
func layoutOf(data []byte) (artifactLayout, bool) {
	if len(data) < FrameHeaderLen {
		return artifactLayout{}, false
	}
	l := artifactLayout{version: binary.BigEndian.Uint32(data[8:12])}
	plen := binary.BigEndian.Uint64(data[44:52])
	if plen > uint64(len(data)-FrameHeaderLen) {
		return l, false
	}
	l.params = FrameHeaderLen + int(plen)
	l.rawFrom = l.params
	switch l.version {
	case jsonArtifactVersion:
		return l, plen >= sha256.Size
	case artifactVersion:
		if plen < payloadPrefixLen {
			return l, false
		}
		p := binary.BigEndian.Uint64(data[FrameHeaderLen+2*sha256.Size:])
		if p > uint64(len(data)-l.params) {
			return l, false
		}
		l.rawFrom += int(p)
		return l, true
	}
	return l, false
}

// rawStartOf is the file offset of a valid image's raw directory.
func rawStartOf(t testing.TB, data []byte) int {
	t.Helper()
	l, ok := layoutOf(data)
	if !ok {
		t.Fatal("not a version-5 or version-4 artifact image")
	}
	return align8(l.rawFrom)
}

// recordedParamsSum is the params digest in a version-5 image's payload.
func recordedParamsSum(data []byte) (sum [sha256.Size]byte) {
	copy(sum[:], data[FrameHeaderLen+sha256.Size:])
	return sum
}

// resealArtifact recomputes the digests and the header checksum of a
// mutated version-5 or version-4 image — in version 5 the params digest
// too — so a mutation reaches the JSON header, the params decoder, the
// directory parser and the array validators instead of dying at a digest
// or the checksum. It reports false when the header fields no longer fit
// the image.
func resealArtifact(data []byte) ([]byte, bool) {
	l, ok := layoutOf(data)
	if !ok {
		return nil, false
	}
	out := bytes.Clone(data)
	if l.version == artifactVersion {
		sum := sha256.Sum256(out[l.params:l.rawFrom])
		copy(out[FrameHeaderLen+sha256.Size:], sum[:])
	}
	sum := sha256.Sum256(out[l.rawFrom:])
	copy(out[FrameHeaderLen:], sum[:])
	header := EncodeFrame(artifactMagic, l.version, out[FrameHeaderLen:l.params])
	copy(out, header[:])
	return out, true
}

// FuzzLoadArtifact asserts the artifact parser never panics: arbitrary
// bytes either reconstruct a complete artifact or return an error, under
// the heap loader (LoadArtifact) and the mapped one's decode
// (decodeArtifact without verify, on an aligned copy). The seeds are
// version-5 files this build writes, a bare one and a shard; the bare one
// reframed as version 3, which the loaders refuse whatever follows the
// frame; and the committed version-4 fixtures: the file whose raw
// directory lists a hierarchy's arrays, which the loader skips, and a
// plain one.
// The checksum and the digests screen random corruption, so every input
// is tried twice — as is, which exercises the frame, checksum and digest
// branches, and resealed, which lets a mutation of the JSON header, the
// params stream, the directory or an array through to the decoders, the
// bounds checks and the graph validator. Whatever loads must have its
// params stream's hash, the recorded digest in version 5, as its model
// fingerprint.
func FuzzLoadArtifact(f *testing.F) {
	f.Add([]byte{})
	seeds := fuzzSeedArtifacts(f)
	seeds = append(seeds, reframed(seeds[0], 3))
	for _, name := range []string{chSectionFixture, plainV4Fixture} {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	for _, valid := range seeds {
		f.Add(valid)
		f.Add(valid[:20]) // inside the header
		plen := int(binary.BigEndian.Uint64(valid[44:52]))
		f.Add(valid[:FrameHeaderLen+plen-5] /* truncated payload */)
		f.Add(valid[:len(valid)-5] /* truncated last array */)
		offs := []int{0, 9, 20, 45, 60, len(valid) - 1} // magic, version, checksum, length, payload, last array
		if l, ok := layoutOf(valid); ok {
			rawStart := align8(l.rawFrom)
			offs = append(offs,
				FrameHeaderLen+plen-3,      // JSON header
				rawStart+12,                // directory: array count
				rawStart+rawDirHeaderLen,   // directory: first array's offset
				rawStart+rawDirHeaderLen+8, // directory: first array's element count
			)
			if l.version == artifactVersion {
				f.Add(valid[:(l.params+l.rawFrom)/2] /* truncated params */)
				// A params digest that does not match, under a payload
				// checksum that does.
				mut := bytes.Clone(valid)
				mut[FrameHeaderLen+sha256.Size] ^= 0x01
				header := EncodeFrame(artifactMagic, artifactVersion, mut[FrameHeaderLen:l.params])
				f.Add(append(header[:], mut[FrameHeaderLen:]...))
				offs = append(offs,
					FrameHeaderLen+2*sha256.Size+7,                // params length
					l.params, (l.params+l.rawFrom)/2, l.rawFrom-1, // params stream
				)
			}
		}
		for _, off := range offs {
			mut := bytes.Clone(valid)
			mut[off] ^= 0x01
			f.Add(mut)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if resealed, ok := resealArtifact(data); ok {
			inputs = append(inputs, resealed)
		}
		for _, in := range inputs {
			art, err := LoadArtifact(bytes.NewReader(in))
			if err == nil {
				if art == nil || art.Graph == nil || art.Model == nil {
					t.Fatal("LoadArtifact returned success with an incomplete artifact")
				}
				requireStreamFingerprint(t, in, art.Model)
				// So must the graph: validation promised its accessors cannot
				// panic.
				_, _ = art.NewRanker().Engine.ShortestCtx(context.Background(), 0, roadnet.VertexID(art.Graph.NumVertices()-1))
			}
			aligned := alignedBytes(len(in))
			copy(aligned, in)
			if art, err := decodeArtifact(aligned, false); err == nil {
				if art == nil || art.Graph == nil || art.Model == nil {
					t.Fatal("the mapped decode returned success with an incomplete artifact")
				}
				requireStreamFingerprint(t, in, art.Model)
			}
		}
	})
}

// requireStreamFingerprint fails t unless m, loaded from the artifact
// image data, can be fingerprinted — which touches every parameter
// tensor — and, in version 5, its fingerprint is the params stream's hash
// and the recorded digest.
func requireStreamFingerprint(t *testing.T, data []byte, m *Model) {
	t.Helper()
	fp, err := m.Fingerprint()
	if err != nil {
		t.Fatalf("loaded artifact cannot be fingerprinted: %v", err)
	}
	l, ok := layoutOf(data)
	if !ok || l.version != artifactVersion {
		return
	}
	params := data[l.params:l.rawFrom]
	if rec := recordedParamsSum(data); fp != rec || fp != sha256.Sum256(params) {
		t.Fatalf("loaded a canonical stream hashing to %x under the digest %x as fingerprint %x", sha256.Sum256(params), rec, fp)
	}
}

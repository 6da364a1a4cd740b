package pathrank

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"os"
	"testing"

	"pathrank/internal/dataset"
	"pathrank/internal/geo"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

// fuzzSeedArtifacts builds and serializes minimal valid artifacts: a
// bare one, one carrying a CH (20 raw arrays), and a shard.
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
	withCH := bare
	withCH.Prep = spath.BuildPrep(g, spath.PrepConfig{})
	shard := withCH
	shard.Shard = &ShardInfo{
		Index: 1, Parts: 2,
		Boundary:   []roadnet.VertexID{v0, v2},
		EdgeGlobal: []roadnet.EdgeID{0, 1, 2, 3, 4, 5},
	}
	var out [][]byte
	for _, art := range []*Artifact{&bare, &withCH, &shard} {
		var buf bytes.Buffer
		if err := SaveArtifact(&buf, art); err != nil {
			f.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// resealArtifact recomputes the raw digest and the header checksum of a
// mutated version-4 image, so a mutation past the payload reaches the
// directory parser and the array validators instead of dying at the
// digest. It reports false when the frame no longer decodes.
func resealArtifact(data []byte) ([]byte, bool) {
	payload, err := DecodeFrame(data, artifactMagic, artifactVersion)
	if err != nil || len(payload) < sha256.Size {
		return nil, false
	}
	out := bytes.Clone(data)
	end := FrameHeaderLen + len(payload)
	sum := sha256.Sum256(out[end:])
	copy(out[FrameHeaderLen:], sum[:])
	header := EncodeFrame(artifactMagic, artifactVersion, out[FrameHeaderLen:end])
	copy(out, header[:])
	return out, true
}

// FuzzLoadArtifact asserts the artifact parser never panics: arbitrary
// bytes either reconstruct a complete artifact or return an error. The
// seeds include the version-3 retired-Prep fixture, so the gob payload
// reader, and its skip of fields the payload struct lacks, stay fuzzed.
// The checksum and the raw digest screen random corruption, so every
// input is tried twice — as is, which exercises the frame, checksum and
// digest branches, and resealed, which lets a mutation of the JSON
// header, the directory or an array through to the decoders, the bounds
// checks and the graph and CH validators.
func FuzzLoadArtifact(f *testing.F) {
	f.Add([]byte{})
	retired, err := os.ReadFile(retiredPrepFixture)
	if err != nil {
		f.Fatal(err)
	}
	for _, valid := range append(fuzzSeedArtifacts(f), retired) {
		f.Add(valid)
		f.Add(valid[:20]) // inside the header
		plen := int(binary.BigEndian.Uint64(valid[44:52]))
		rawStart := align8(FrameHeaderLen + plen)
		f.Add(valid[:FrameHeaderLen+plen-5] /* truncated payload */)
		f.Add(valid[:len(valid)-5] /* truncated last array */)
		for _, off := range []int{
			0, 9, 20, 45, 60, // magic, version, checksum, length, payload
			FrameHeaderLen + payloadPrefixLen + 3, // JSON header
			rawStart + 12,                         // directory: array count
			rawStart + rawDirHeaderLen,            // directory: first array's offset
			rawStart + rawDirHeaderLen + 8,        // directory: first array's element count
			len(valid) - 1,                        // a byte inside the last array
		} {
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
			if err != nil {
				continue
			}
			if art == nil || art.Graph == nil || art.Model == nil {
				t.Fatal("LoadArtifact returned success with an incomplete artifact")
			}
			// The loaded model must be usable: fingerprinting touches every
			// parameter tensor.
			if _, ferr := art.Model.Fingerprint(); ferr != nil {
				t.Fatalf("loaded artifact cannot be fingerprinted: %v", ferr)
			}
			// So must the hierarchy: validation promised unpacking terminates.
			if art.Prep != nil && art.Prep.CH != nil {
				_, _ = art.Prep.CH.Query(0, roadnet.VertexID(art.Graph.NumVertices()-1))
			}
		}
	})
}

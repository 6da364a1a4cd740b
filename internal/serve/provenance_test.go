package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"testing"

	"pathrank/internal/api"
)

// fakeProvenance stands in for the live pipeline, keeping this package's
// tests independent of internal/stream.
type fakeProvenance struct {
	info   api.ProvenanceInfo
	proofs map[int64]api.InclusionProof
}

func (f *fakeProvenance) Provenance() api.ProvenanceInfo { return f.info }

func (f *fakeProvenance) ProveTrajectory(seq int64) (api.InclusionProof, error) {
	p, ok := f.proofs[seq]
	if !ok {
		return api.InclusionProof{}, errors.New("no inclusion proof for that trajectory")
	}
	return p, nil
}

func getJSON(t *testing.T, url string, status int, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != status {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, status)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
}

func TestProvenanceEndpointWithoutPipeline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var info api.ProvenanceInfo
	getJSON(t, ts.URL+"/v1/provenance", http.StatusOK, &info)
	// The offline test artifact has no provenance roots and no WAL; the
	// endpoint must still answer with the lineage's (empty) commitments.
	if info.DataRoot != "" || info.WAL != nil {
		t.Fatalf("offline artifact provenance: %+v", info)
	}
	getJSON(t, ts.URL+"/v1/provenance?seq=1", http.StatusNotFound, nil)
}

func TestProvenanceEndpointWithPipeline(t *testing.T) {
	src := &fakeProvenance{
		info: api.ProvenanceInfo{
			Generation: 3,
			DataRoot:   "aa11",
			ChainRoot:  "bb22",
			BatchSize:  5,
			WAL: &api.WALStatus{
				Segments: 2, LastIndex: 17, SyncedIndex: 17,
				FsyncPolicy: "batch", Fsyncs: 4, RecoveredRecords: 6, TornBytes: 3,
			},
		},
		proofs: map[int64]api.InclusionProof{
			9: {Seq: 9, Generation: 3, Index: 1, BatchSize: 5, LeafHash: "cc33", DataRoot: "aa11", ChainRoot: "bb22"},
		},
	}
	_, ts := newTestServer(t, Config{Provenance: src})

	var info api.ProvenanceInfo
	getJSON(t, ts.URL+"/v1/provenance", http.StatusOK, &info)
	if info.Generation != 3 || info.DataRoot != "aa11" || info.WAL == nil || info.WAL.LastIndex != 17 {
		t.Fatalf("provenance info: %+v", info)
	}

	var proof api.InclusionProof
	getJSON(t, ts.URL+"/v1/provenance?seq=9", http.StatusOK, &proof)
	if proof.Seq != 9 || proof.DataRoot != "aa11" || proof.BatchSize != 5 {
		t.Fatalf("inclusion proof: %+v", proof)
	}
	getJSON(t, ts.URL+"/v1/provenance?seq=10", http.StatusNotFound, nil)
	getJSON(t, ts.URL+"/v1/provenance?seq=zero", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/provenance?seq=-4", http.StatusBadRequest, nil)

	// The health response carries the WAL block.
	var health struct {
		WAL *api.WALStatus `json:"wal"`
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &health)
	if health.WAL == nil || health.WAL.Segments != 2 || health.WAL.TornBytes != 3 {
		t.Fatalf("healthz wal block: %+v", health.WAL)
	}
}

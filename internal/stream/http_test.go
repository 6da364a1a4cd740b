package stream

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"pathrank/internal/api"
	"pathrank/internal/pathrank"
)

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

func postStatus(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestIngestEndpoint covers POST /v1/ingest: a valid trajectory is queued
// record for record, malformed and over-limit bodies are 400/413 and
// counted as rejected observations, and a
// full queue is 503 with Retry-After. No workers run, so queued items stay
// where the test can read them.
func TestIngestEndpoint(t *testing.T) {
	art, _ := testWorld(t)
	svc, err := New(art, Config{QueueSize: 1, MaxIngestRecords: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	url := ts.URL + "/v1/ingest"

	body := `{"records":[{"lon":10,"lat":57,"t":0},{"lon":10.001,"lat":57,"t":5}]}`
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ack api.IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || ack.Queued != 2 {
		t.Fatalf("ingest: status %d queued %d, want 202/2", resp.StatusCode, ack.Queued)
	}
	item := <-svc.queue
	if len(item.records) != 2 || item.records[1].TimeOffset != 5 || item.records[1].Point.Lon != 10.001 {
		t.Fatalf("queued trajectory %+v", item.records)
	}

	long := `{"records":[{"lon":10,"lat":57,"t":0},{"lon":10,"lat":57,"t":1},{"lon":10,"lat":57,"t":2},{"lon":10,"lat":57,"t":3}]}`
	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"malformed", "{", http.StatusBadRequest},
		{"empty trajectory", `{"records":[]}`, http.StatusBadRequest},
		{"unknown field", `{"records":[],"nope":1}`, http.StatusBadRequest},
		{"oversized", `{"records":[` + strings.Repeat(" ", maxIngestBody) + `]}`, http.StatusRequestEntityTooLarge},
		{"over the record cap", long, http.StatusBadRequest},
	} {
		if resp := postStatus(t, url, tc.body); resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	if st := svc.Stats(); st.Received != 1 {
		t.Fatalf("rejected bodies reached the queue: %+v", st)
	}
	if got := svc.obs.observations.With(obsRejected).Value(); got != 5 {
		t.Fatalf("observations_total{result=rejected} = %v, want 5", got)
	}

	// Backpressure: the one-slot queue fills, the next trajectory sheds.
	if resp := postStatus(t, url, body); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("refill: status %d, want 202", resp.StatusCode)
	}
	resp = postStatus(t, url, body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("full queue: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("full queue: missing Retry-After header")
	}
}

// TestProvenanceEndpoint covers GET /v1/provenance and the trainer's
// /healthz after a committed generation with the WAL on: the commitments
// mirror the lineage, every trained trajectory has a proof under the data
// root, and the WAL block reports a durable log.
func TestProvenanceEndpoint(t *testing.T) {
	art, trips := testWorld(t)
	svc, err := New(art, Config{
		QueueSize: 16, Workers: 2, WALDir: t.TempDir(),
		Train: pathrank.TrainConfig{Epochs: 1, LR: 0.002, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ingestAll(t, svc, sampleTrajectories(art, trips[:4], 800))
	gen1, err := svc.RetrainNow()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	var info api.ProvenanceInfo
	getJSON(t, ts.URL+"/v1/provenance", http.StatusOK, &info)
	if info.Generation != 1 || info.DataRoot != gen1.Lineage.DataRoot || info.ChainRoot != gen1.Lineage.ChainRoot ||
		info.BatchSize != gen1.Lineage.TrainedOn {
		t.Fatalf("provenance %+v does not mirror the lineage %+v", info, gen1.Lineage)
	}
	if info.WAL == nil || info.WAL.LastIndex == 0 || info.WAL.LastIndex != info.WAL.SyncedIndex {
		t.Fatalf("provenance WAL block %+v, want a synced log", info.WAL)
	}

	svc.mu.Lock()
	seqs := append([]int64(nil), svc.batchSeqs...)
	svc.mu.Unlock()
	for _, seq := range seqs {
		var proof api.InclusionProof
		getJSON(t, ts.URL+"/v1/provenance?seq="+strconv.FormatInt(seq, 10), http.StatusOK, &proof)
		if proof.Seq != seq || proof.DataRoot != info.DataRoot || proof.BatchSize != info.BatchSize {
			t.Fatalf("inclusion proof for seq %d: %+v", seq, proof)
		}
	}
	getJSON(t, ts.URL+"/v1/provenance?seq="+strconv.FormatInt(seqs[len(seqs)-1]+1000, 10), http.StatusNotFound, nil)
	getJSON(t, ts.URL+"/v1/provenance?seq=zero", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/provenance?seq=-4", http.StatusBadRequest, nil)

	var health healthResponse
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &health)
	if health.Status != "ok" || health.Generation != 1 || health.Pipeline.State != api.PipelineReady ||
		health.WAL == nil || health.WAL.LastIndex != info.WAL.LastIndex {
		t.Fatalf("healthz %+v", health)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(scrape), `pathrank_retrains_total{result="ok"} 1`) {
		t.Fatalf("/metrics does not count the retrain:\n%s", scrape)
	}
}

// TestProvenanceEndpointWithoutWAL: before any retrain and without a WAL
// the endpoint answers with empty commitments, no WAL block, and no
// proofs.
func TestProvenanceEndpointWithoutWAL(t *testing.T) {
	art, _ := testWorld(t)
	svc, err := New(art, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	var info api.ProvenanceInfo
	getJSON(t, ts.URL+"/v1/provenance", http.StatusOK, &info)
	if info.DataRoot != "" || info.ChainRoot != "" || info.WAL != nil {
		t.Fatalf("fresh trainer provenance: %+v", info)
	}
	getJSON(t, ts.URL+"/v1/provenance?seq=1", http.StatusNotFound, nil)

	var health map[string]any
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &health)
	if _, ok := health["wal"]; ok || health["status"] != "ok" {
		t.Fatalf("healthz without a WAL: %v", health)
	}
}

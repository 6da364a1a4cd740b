package stream

import (
	"fmt"
	"net/http"
	"strconv"

	"pathrank/internal/api"
	"pathrank/internal/geo"
	"pathrank/internal/traj"
)

// maxIngestBody bounds a POST /v1/ingest body (GPS streams are bulkier
// than rank queries).
const maxIngestBody = 8 << 20

// Handler returns the trainer's HTTP API:
//
//	POST /v1/ingest            one raw GPS trajectory -> 202; a full queue is 503 + Retry-After
//	GET  /v1/provenance        Merkle commitments of the newest generation + WAL health
//	GET  /v1/provenance?seq=N  inclusion proof for ingested trajectory N
//	GET  /healthz              pipeline health (ready or degraded), generation, WAL
//	GET  /metrics              the pipeline's registry in Prometheus text format
//
// Errors on the /v1 endpoints are api.MessageError bodies.
func (s *Service) Handler() http.Handler {
	return api.RouteTable(
		api.Route{Method: http.MethodPost, Path: "/v1/ingest", Handler: s.handleIngest},
		api.Route{Method: http.MethodGet, Path: "/v1/provenance", Handler: s.handleProvenance},
		api.Route{Method: http.MethodGet, Path: "/healthz", Handler: s.handleHealthz},
		api.Route{Method: http.MethodGet, Path: "/metrics", Handler: s.obs.reg.ServeHTTP},
	)
}

func (s *Service) handleIngest(w http.ResponseWriter, r *http.Request) {
	reject := func(status int, msg string) {
		s.obs.observations.With(obsRejected).Inc()
		api.WriteJSON(w, status, api.MessageError{Error: msg})
	}
	var req api.IngestRequest
	if apiErr := api.DecodeJSON(w, r, maxIngestBody, &req); apiErr != nil {
		reject(apiErr.Status, apiErr.Message)
		return
	}
	if len(req.Records) == 0 {
		reject(http.StatusBadRequest, "trajectory has no records")
		return
	}
	if len(req.Records) > s.cfg.MaxIngestRecords {
		reject(http.StatusBadRequest, fmt.Sprintf("trajectory has %d records, limit is %d — split long traces",
			len(req.Records), s.cfg.MaxIngestRecords))
		return
	}
	recs := make([]traj.GPSRecord, len(req.Records))
	for i, sm := range req.Records {
		recs[i] = traj.GPSRecord{Point: geo.Point{Lon: sm.Lon, Lat: sm.Lat}, TimeOffset: sm.T}
	}
	if err := s.IngestGPS(recs); err != nil {
		// The only failure left is ErrBacklog: the client should retry.
		w.Header().Set("Retry-After", "1")
		api.WriteJSON(w, http.StatusServiceUnavailable, api.MessageError{Error: err.Error()})
		return
	}
	api.WriteJSON(w, http.StatusAccepted, api.IngestResponse{Queued: len(req.Records)})
}

// handleProvenance answers GET /v1/provenance. Without a seq parameter it
// reports the provenance commitments of the newest generation plus WAL
// health; with ?seq=N it issues a Merkle inclusion proof for the
// trajectory with that ingest sequence number, or 404 when the trajectory
// is not in the current training batch.
func (s *Service) handleProvenance(w http.ResponseWriter, r *http.Request) {
	seqStr := r.URL.Query().Get("seq")
	if seqStr == "" {
		api.WriteJSON(w, http.StatusOK, s.Provenance())
		return
	}
	seq, err := strconv.ParseInt(seqStr, 10, 64)
	if err != nil || seq <= 0 {
		api.WriteJSON(w, http.StatusBadRequest, api.MessageError{Error: "seq must be a positive integer"})
		return
	}
	proof, err := s.ProveTrajectory(seq)
	if err != nil {
		api.WriteJSON(w, http.StatusNotFound, api.MessageError{Error: err.Error()})
		return
	}
	api.WriteJSON(w, http.StatusOK, proof)
}

// healthResponse is the body of the trainer's GET /healthz.
type healthResponse struct {
	// Status is "ok", or "degraded" while the pipeline is: ingest
	// durability is impaired, surfaced at the top level so plain liveness
	// probes notice without parsing the pipeline block.
	Status string `json:"status"`
	// Generation is the newest committed generation.
	Generation int                `json:"generation"`
	Pipeline   api.PipelineHealth `json:"pipeline"`
	// WAL reports the trajectory log when one is configured.
	WAL *api.WALStatus `json:"wal,omitempty"`
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	prov := s.Provenance()
	resp := healthResponse{Status: "ok", Generation: prov.Generation, Pipeline: s.Health(), WAL: prov.WAL}
	if resp.Pipeline.State == api.PipelineDegraded {
		resp.Status = api.PipelineDegraded
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

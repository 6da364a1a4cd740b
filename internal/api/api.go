// Package api defines the wire types and error model of the versioned
// PathRank query API. It is the single vocabulary shared by the HTTP
// tiers (internal/serve, shardserve, router, and the trainer's
// internal/stream), the Go client SDK
// (pathrank.Client at the module root), and the CLIs — so a request
// marshaled by the client is by construction the request the server
// decodes, and error codes survive the HTTP round-trip intact.
//
// The package is a leaf: plain data types, JSON tags, the code→status
// mapping, the one HTTP envelope every serving tier reads requests and
// writes responses through (http.go), and the exact-path route table every
// tier's handler is (route.go). It imports nothing from the rest of the
// module.
package api

import (
	"fmt"
	"net/http"
)

// Error codes of the query API. Every failure a client can observe carries
// exactly one of these; HTTPStatus maps them onto response statuses.
const (
	// CodeInvalid reports a malformed or out-of-range request (bad vertex
	// IDs, unknown strategy, k over the server limit, ...).
	CodeInvalid = "invalid_request"
	// CodeUnroutable reports an origin-destination pair with no connecting
	// path in the road network.
	CodeUnroutable = "unroutable"
	// CodeDeadline reports a query abandoned because its deadline expired
	// mid-computation.
	CodeDeadline = "deadline_exceeded"
	// CodeCanceled reports a query abandoned because the caller canceled
	// it (e.g. the client disconnected).
	CodeCanceled = "canceled"
	// CodeBacklog reports a server too loaded to accept the work right
	// now; the client should retry after a short delay.
	CodeBacklog = "backlog"
	// CodeShardUnavailable reports that a sharded deployment's router
	// could not reach a shard the query needs (down, draining, or serving
	// a different bundle generation); the client should retry after a
	// short delay, like CodeBacklog.
	CodeShardUnavailable = "shard_unavailable"
	// CodeInternal reports an unexpected server-side failure.
	CodeInternal = "internal"
)

// HTTPStatus maps an error code onto its HTTP response status.
func HTTPStatus(code string) int {
	switch code {
	case CodeInvalid:
		return http.StatusBadRequest
	case CodeUnroutable:
		return http.StatusNotFound
	case CodeDeadline:
		return http.StatusGatewayTimeout
	case CodeCanceled:
		return http.StatusRequestTimeout
	case CodeBacklog, CodeShardUnavailable:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// Error is a typed API failure: the wire error body of v2 responses and
// the error value the client SDK returns for non-2xx responses.
type Error struct {
	// Status is the HTTP status the error traveled with; zero when the
	// error has not crossed the wire (it is derivable from Code).
	Status int `json:"-"`
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is a human-readable description.
	Message string `json:"message"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("pathrank api: %s (%s)", e.Message, e.Code)
}

// ErrorEnvelope is the body of a non-2xx v2 response.
type ErrorEnvelope struct {
	Error *Error `json:"error"`
}

// RankQuery is one origin-destination ranking query of POST /v2/rank.
// Every field except Src and Dst is optional; zero values select the
// serving snapshot's defaults.
type RankQuery struct {
	Src int64 `json:"src"`
	Dst int64 `json:"dst"`
	// K overrides the candidate-set size.
	K int `json:"k,omitempty"`
	// Strategy selects the candidate generator: "tkdi" (plain top-k) or
	// "dtkdi" (diversified top-k).
	Strategy string `json:"strategy,omitempty"`
	// Threshold overrides the D-TkDI similarity threshold (0, 1].
	Threshold float64 `json:"threshold,omitempty"`
	// MaxProbe overrides the D-TkDI enumeration budget, at most 10 times
	// the server's k cap.
	MaxProbe int `json:"max_probe,omitempty"`
	// Weight selects the edge metric: "length" (meters, the default) or
	// "time" (free-flow seconds).
	Weight string `json:"weight,omitempty"`
	// Explain requests candidate-generation statistics in the response.
	Explain bool `json:"explain,omitempty"`
	// TimeoutMs bounds the server-side computation in milliseconds; the
	// query fails with CodeDeadline when it expires. For batch requests
	// only the top-level timeout applies.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// RankRequest is the body of POST /v2/rank: either one inline query or a
// batch under "queries" (the inline fields are then ignored, except the
// top-level TimeoutMs). A present-but-empty "queries" array is an empty
// batch, not a single query.
type RankRequest struct {
	RankQuery
	Queries []RankQuery `json:"queries,omitempty"`
}

// RankedPath is one ranked candidate, best first.
type RankedPath struct {
	Rank     int     `json:"rank"`
	Score    float64 `json:"score"`
	LengthM  float64 `json:"length_m"`
	TimeS    float64 `json:"time_s"`
	Hops     int     `json:"hops"`
	Vertices []int64 `json:"vertices"`
}

// RankStats describes how a ranking was produced; present when the query
// set Explain and this response actually computed something — cached and
// singleflight-shared results omit stats entirely, since the responding
// request generated nothing.
type RankStats struct {
	Strategy   string  `json:"strategy"`
	K          int     `json:"k"`
	Threshold  float64 `json:"threshold,omitempty"`
	MaxProbe   int     `json:"max_probe,omitempty"`
	Weight     string  `json:"weight"`
	Candidates int     `json:"candidates"`
	GenNs      int64   `json:"generation_ns,omitempty"`
	// ScoreNs is this query's own NN scoring time, for a batch item too:
	// every item is ranked on its own, with no sweep shared across items.
	ScoreNs int64 `json:"score_ns,omitempty"`
	// Route classifies how a sharded deployment answered the query:
	// "co_shard" (both endpoints on one shard, proxied whole) or
	// "cross_shard" (corridor-stitched across shards). Empty outside a
	// sharded deployment.
	Route string `json:"route,omitempty"`
	// Shards is the per-shard latency breakdown of a routed query.
	Shards []ShardStat `json:"shards,omitempty"`
}

// ShardStat is one shard's contribution to a routed query: which shard,
// what it was asked for, and how long its calls took (including the
// router's queueing and network time, so the sum can exceed the shard's
// own server-side numbers).
type ShardStat struct {
	// Shard is the shard index in the bundle.
	Shard int `json:"shard"`
	// Role is what the shard computed: "proxy" (full co-resident query)
	// or "corridor" (corridor subgraph extraction; repeated rounds
	// accumulate).
	Role string `json:"role"`
	// Calls is the number of HTTP calls made to this shard for the query,
	// counting hedged duplicates.
	Calls int `json:"calls"`
	// TotalNs is the summed wall time of those calls as seen by the router.
	TotalNs int64 `json:"total_ns"`
	// Hedged reports whether any call to this shard fired its hedge.
	Hedged bool `json:"hedged,omitempty"`
}

// RankResult is one successful ranking: the body of a single-query v2
// response and the per-item payload of a batch response.
type RankResult struct {
	Src    int64        `json:"src"`
	Dst    int64        `json:"dst"`
	K      int          `json:"k"`
	Cached bool         `json:"cached"`
	Shared bool         `json:"shared,omitempty"`
	Paths  []RankedPath `json:"paths"`
	Stats  *RankStats   `json:"stats,omitempty"`
}

// BatchItem is one entry of a batch response: exactly one of Response and
// Error is set. Index is the query's position in the request, so clients
// can correlate even if they filter.
type BatchItem struct {
	Index    int         `json:"index"`
	Response *RankResult `json:"response,omitempty"`
	Error    *Error      `json:"error,omitempty"`
}

// BatchResponse is the body of a batch POST /v2/rank. The HTTP status is
// 200 whenever the batch itself was processed; per-item failures are
// reported inline with their own codes.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
	// Errors counts the items that failed.
	Errors int `json:"errors"`
}

// MessageError is the error body of the /v1 endpoints (reload, ingest,
// provenance): a plain message, not a typed v2 envelope.
type MessageError struct {
	Error string `json:"error"`
}

// GPSSample is one raw positioning record of an ingested trajectory.
type GPSSample struct {
	Lon float64 `json:"lon"`
	Lat float64 `json:"lat"`
	// T is seconds since the start of the trip.
	T float64 `json:"t"`
}

// IngestRequest is the body of POST /v1/ingest: one raw GPS trajectory.
type IngestRequest struct {
	Records []GPSSample `json:"records"`
}

// IngestResponse acknowledges an accepted trajectory.
type IngestResponse struct {
	Queued int `json:"queued"`
}

// WALStatus describes the trajectory write-ahead log behind a live
// pipeline: segment inventory, append/sync frontier, and what crash
// recovery found at startup. Embedded in ProvenanceInfo and in the
// trainer's health response when the WAL is enabled.
type WALStatus struct {
	// Segments is the number of live segment files.
	Segments int `json:"segments"`
	// LastIndex is the highest record index appended; SyncedIndex is the
	// highest known durable (fsynced). LastIndex-SyncedIndex records would
	// be lost to a crash right now.
	LastIndex   uint64 `json:"last_index"`
	SyncedIndex uint64 `json:"synced_index"`
	// FsyncPolicy is the configured durability mode ("always", "batch",
	// "interval").
	FsyncPolicy string `json:"fsync_policy"`
	// Fsyncs counts fsync calls; FsyncMeanUs is their mean latency in
	// microseconds (0 until the first fsync).
	Fsyncs      int64   `json:"fsyncs"`
	FsyncMeanUs float64 `json:"fsync_mean_us"`
	// RecoveredRecords is how many records crash recovery replayed at
	// startup; TornBytes is how many trailing bytes of a torn final write
	// it discarded.
	RecoveredRecords int   `json:"recovered_records"`
	TornBytes        int64 `json:"torn_bytes"`
	// AppendErrors counts WAL append failures; each failing observation is
	// parked for degraded-mode re-sync rather than dropped (see
	// PipelineHealth).
	AppendErrors int64 `json:"append_errors"`
}

// Pipeline health states reported in PipelineHealth.State and mirrored
// into the top-level status of the trainer's /healthz.
const (
	// PipelineReady means the live pipeline is fully operational.
	PipelineReady = "ready"
	// PipelineDegraded means the pipeline is running in degraded mode:
	// WAL writes are failing, accepted observations are parked in memory,
	// and a background loop is retrying until the disk recovers.
	PipelineDegraded = "degraded"
)

// PipelineHealth is the live pipeline's self-reported health, embedded in
// the trainer's /healthz response. A degraded state is mirrored into the
// top-level health status so ordinary liveness probes see it without
// parsing this structure.
type PipelineHealth struct {
	// State is PipelineReady or PipelineDegraded.
	State string `json:"state"`
	// Reason describes the fault behind a degraded state (e.g. the last
	// WAL append error).
	Reason string `json:"reason,omitempty"`
	// DegradedForS is how long the pipeline has been degraded, in seconds.
	DegradedForS float64 `json:"degraded_for_s,omitempty"`
	// Parked is the number of observations held in the bounded in-memory
	// buffer awaiting WAL re-sync; they are not in the training window yet
	// (the window must stay a subset of the log).
	Parked int `json:"parked_observations,omitempty"`
	// Lost counts observations dropped because the parking buffer
	// overflowed while the WAL was failing — the documented loss bound of
	// degraded mode.
	Lost int64 `json:"lost_observations,omitempty"`
	// WorkerPanics counts contained worker panics (each one recovered,
	// counted, and the worker kept running).
	WorkerPanics int64 `json:"worker_panics,omitempty"`
}

// ProvenanceInfo is the body of the trainer's GET /v1/provenance without
// a seq parameter: the provenance commitments of its newest generation.
type ProvenanceInfo struct {
	// Generation is the lineage generation the roots belong to.
	Generation int `json:"generation"`
	// DataRoot is the hex Merkle root over the canonical encodings of the
	// trajectories this generation trained on; empty before the first
	// retrain (nothing committed yet).
	DataRoot string `json:"data_root,omitempty"`
	// ChainRoot chains every generation's DataRoot back to genesis; it
	// changes whenever any trajectory in the model's entire history does.
	ChainRoot string `json:"chain_root,omitempty"`
	// BatchSize is the number of trajectories under DataRoot.
	BatchSize int `json:"batch_size,omitempty"`
	// WAL reports the trajectory log, when one is configured.
	WAL *WALStatus `json:"wal,omitempty"`
}

// InclusionProof is the body of the trainer's GET /v1/provenance?seq=N: a
// Merkle audit path proving trajectory N is under the newest generation's
// DataRoot.
// Verify with pathrank.VerifyInclusionProof.
type InclusionProof struct {
	// Seq is the ingest sequence number the proof covers.
	Seq int64 `json:"seq"`
	// Generation is the lineage generation whose training batch contains
	// the trajectory.
	Generation int `json:"generation"`
	// Index is the leaf position and BatchSize the leaf count of the
	// Merkle tree. BatchSize comes from the trusted lineage: an audit path
	// alone does not bind the tree size.
	Index     int `json:"index"`
	BatchSize int `json:"batch_size"`
	// LeafHash is the hex leaf hash of the trajectory's canonical WAL
	// encoding; Path is the audit path, leaf-adjacent first.
	LeafHash string   `json:"leaf_hash"`
	Path     []string `json:"path"`
	// DataRoot is the root the path must reproduce; ChainRoot ties it into
	// the generation chain. Both must match the artifact's lineage.
	DataRoot  string `json:"data_root"`
	ChainRoot string `json:"chain_root"`
}

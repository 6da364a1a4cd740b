// Package pathrank is a Go implementation of "Learning to Rank Paths in
// Spatial Networks" (Sean Bin Yang and Bin Yang, ICDE 2020): a data-driven
// framework that learns from vehicle trajectories to rank candidate paths
// between an origin and a destination the way local drivers would.
//
// The module root re-exports the user-facing workflow; implementation lives
// under internal/:
//
//	g, _   := pathrank.GenerateNetwork(pathrank.DefaultNetworkConfig())
//	pop    := pathrank.NewPopulation(pathrank.PopulationConfig{NumDrivers: 60, Seed: 1})
//	trips, _ := pathrank.GenerateTrips(g, pop, pathrank.TripConfig{TripsPerDriver: 6, MinHops: 5, Seed: 2})
//	pipe, _  := pathrank.BuildPipeline(g, trips, pathrank.DefaultPipelineConfig(64))
//	ranker   := pathrank.NewRanker(g, pipe.Model)
//	resp, _ := ranker.Rank(ctx, pathrank.RankRequest{Src: src, Dst: dst})
//
// Interactive queries go through the Query API v2: a first-class
// RankRequest with per-request overrides of the candidate regime and full
// context support (cancellation stops an in-flight enumeration), either in
// process or over HTTP through the Client SDK:
//
//	resp, _ := ranker.Rank(ctx, pathrank.RankRequest{Src: src, Dst: dst, K: 8})
//
//	c := &pathrank.Client{BaseURL: "http://localhost:8080"}
//	res, _ := c.Rank(ctx, pathrank.RankQuery{Src: 12, Dst: 431, Strategy: "dtkdi"})
//
// A trained pipeline can be persisted as a single artifact file — there is
// one format, the one pathrank-serve reads or memory-maps — and served over
// HTTP:
//
//	art := &pathrank.Artifact{Graph: g, Model: pipe.Model}
//	_ = pathrank.SaveArtifactFile("model.prart", art)   // training side: temp file + fsync + rename
//	art, _ = pathrank.LoadArtifactFile("model.prart")   // serving side: every byte verified
//
// See README.md ("Architecture") for the full system inventory, README.md
// ("Running the evaluation") for the reproduction of the paper's tables,
// README.md ("Serving") for the online ranking service and the artifact
// format, and README.md ("Query API v2") for the request/response schema,
// typed error codes, and client examples.
package pathrank

import (
	"fmt"
	"io"

	"pathrank/internal/api"
	"pathrank/internal/dataset"
	"pathrank/internal/merkle"
	"pathrank/internal/metrics"
	"pathrank/internal/node2vec"
	"pathrank/internal/pathrank"
	"pathrank/internal/pathsim"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
	"pathrank/internal/traj"
)

// Road-network substrate.
type (
	// Graph is a spatial road network.
	Graph = roadnet.Graph
	// NetworkConfig parameterizes synthetic network generation.
	NetworkConfig = roadnet.GenConfig
	// VertexID identifies a network vertex.
	VertexID = roadnet.VertexID
	// EdgeID identifies a network edge.
	EdgeID = roadnet.EdgeID
)

// GenerateNetwork builds a synthetic road network.
func GenerateNetwork(cfg NetworkConfig) (*Graph, error) { return roadnet.Generate(cfg) }

// DefaultNetworkConfig returns a medium regional network configuration.
func DefaultNetworkConfig() NetworkConfig { return roadnet.DefaultGenConfig() }

// LoadNetwork reads a network written with (*Graph).SaveFile.
func LoadNetwork(path string) (*Graph, error) { return roadnet.LoadFile(path) }

// Shortest-path engine.
type (
	// Path is a connected edge sequence through a Graph.
	Path = spath.Path
	// Weight maps an edge to a traversal cost.
	Weight = spath.Weight
)

// Edge weight functions.
var (
	// ByLength weights edges by length in meters.
	ByLength = spath.ByLength
	// ByTime weights edges by free-flow travel time in seconds.
	ByTime = spath.ByTime
)

// ShortestPath returns a minimum-cost path (Dijkstra).
func ShortestPath(g *Graph, src, dst VertexID, w Weight) (Path, error) {
	return spath.Dijkstra(g, src, dst, w)
}

// TopKPaths returns up to k loopless shortest paths (Yen), the paper's TkDI
// candidate generator.
func TopKPaths(g *Graph, src, dst VertexID, k int, w Weight) ([]Path, error) {
	return spath.TopK(g, src, dst, k, w)
}

// DiversifiedTopKPaths returns up to k mutually dissimilar shortest paths,
// the paper's D-TkDI candidate generator, using weighted Jaccard as the
// similarity measure.
func DiversifiedTopKPaths(g *Graph, src, dst VertexID, k int, threshold float64) ([]Path, error) {
	return spath.DiversifiedTopK(g, src, dst, k, spath.ByLength,
		pathsim.WeightedJaccardSim(g), threshold, 10*k)
}

// WeightedJaccard is the paper's ground-truth ranking score: length-weighted
// edge-set overlap of two paths in [0,1].
func WeightedJaccard(g *Graph, a, b Path) float64 { return pathsim.WeightedJaccard(g, a, b) }

// Trajectory substrate.
type (
	// Driver is a simulated driver with latent route preferences.
	Driver = traj.Driver
	// PopulationConfig parameterizes driver sampling.
	PopulationConfig = traj.PopulationConfig
	// Trip is one driven journey.
	Trip = traj.Trip
	// TripConfig parameterizes trip simulation.
	TripConfig = traj.TripConfig
	// GPSRecord is one raw positioning sample.
	GPSRecord = traj.GPSRecord
	// GPSConfig parameterizes GPS sampling.
	GPSConfig = traj.GPSConfig
	// Matcher recovers network paths from GPS streams (HMM + Viterbi).
	Matcher = traj.Matcher
	// MatchConfig parameterizes the map matcher.
	MatchConfig = traj.MatchConfig
)

// NewPopulation samples a driver population with shared local conventions.
func NewPopulation(cfg PopulationConfig) []*Driver { return traj.NewPopulation(cfg) }

// GenerateTrips simulates preference-optimal trips for every driver.
func GenerateTrips(g *Graph, drivers []*Driver, cfg TripConfig) ([]Trip, error) {
	return traj.GenerateTrips(g, drivers, cfg)
}

// SampleGPS emits noisy GPS records along a driven path.
func SampleGPS(g *Graph, p Path, cfg GPSConfig) []GPSRecord { return traj.SampleGPS(g, p, cfg) }

// NewMatcher builds an HMM map matcher over g.
func NewMatcher(g *Graph, cfg MatchConfig) *Matcher { return traj.NewMatcher(g, cfg) }

// Training data.
type (
	// DataConfig selects and sizes the candidate-generation strategy.
	DataConfig = dataset.Config
	// Query is one trajectory's labeled candidate set.
	Query = dataset.Query
	// Instance is one labeled candidate path.
	Instance = dataset.Instance
	// Strategy selects TkDI or D-TkDI candidate generation.
	Strategy = dataset.Strategy
)

// Candidate-generation strategies.
const (
	// TkDI is plain top-k shortest paths.
	TkDI = dataset.TkDI
	// DTkDI is diversified top-k shortest paths.
	DTkDI = dataset.DTkDI
)

// GenerateDataset labels candidate sets for every trip.
func GenerateDataset(g *Graph, trips []Trip, cfg DataConfig) ([]Query, error) {
	return dataset.Generate(g, trips, cfg)
}

// SplitDataset partitions queries into train and test sets.
func SplitDataset(queries []Query, testFrac float64, seed int64) (train, test []Query) {
	return dataset.Split(queries, testFrac, seed)
}

// Model and training.
type (
	// Model is the PathRank scorer (embedding + GRU + regression head).
	// Score evaluates one path; ScoreBatch scores a candidate set through
	// the batched (fused) kernels — bit-identical to per-path scoring but
	// several times faster — with ScoreBatchPerPath as the reference
	// implementation the fused path is tested against.
	Model = pathrank.Model
	// ModelConfig parameterizes a Model.
	ModelConfig = pathrank.Config
	// TrainConfig parameterizes the training loop.
	TrainConfig = pathrank.TrainConfig
	// Variant selects frozen (PR-A1) or fine-tuned (PR-A2) embeddings.
	Variant = pathrank.Variant
	// Body selects the sequence model (GRU is the paper's).
	Body = pathrank.Body
	// Ranked pairs a path with its model score.
	Ranked = pathrank.Ranked
	// Ranker answers origin-destination ranking queries.
	Ranker = pathrank.Ranker
	// Pipeline bundles the artifacts of an end-to-end build.
	Pipeline = pathrank.Pipeline
	// PipelineConfig configures an end-to-end build.
	PipelineConfig = pathrank.PipelineConfig
	// Report aggregates MAE, MARE, Kendall tau and Spearman rho.
	Report = metrics.Report
	// Embeddings holds node2vec vertex vectors.
	Embeddings = node2vec.Embeddings
)

// Model variants and bodies.
const (
	// PRA1 freezes node2vec embeddings.
	PRA1 = pathrank.PRA1
	// PRA2 fine-tunes embeddings end to end.
	PRA2 = pathrank.PRA2
	// GRUBody is the paper's recurrent body.
	GRUBody = pathrank.GRUBody
	// BiGRUBody is a bidirectional variant.
	BiGRUBody = pathrank.BiGRUBody
	// LSTMBody is an ablation body.
	LSTMBody = pathrank.LSTMBody
	// MeanPoolBody is a non-recurrent ablation body.
	MeanPoolBody = pathrank.MeanPoolBody
)

// NewModel builds an untrained PathRank model.
func NewModel(numVertices int, cfg ModelConfig) (*Model, error) {
	return pathrank.New(numVertices, cfg)
}

// BuildPipeline runs the full construction: node2vec, a trip-level split,
// candidate generation and labeling, and training.
func BuildPipeline(g *Graph, trips []Trip, cfg PipelineConfig) (*Pipeline, error) {
	return pathrank.BuildPipeline(g, trips, cfg)
}

// DefaultPipelineConfig returns a complete configuration with embedding
// size m.
func DefaultPipelineConfig(m int) PipelineConfig { return pathrank.DefaultPipelineConfig(m) }

// NewRanker wraps a trained model for query-time use.
func NewRanker(g *Graph, m *Model) *Ranker { return pathrank.NewRanker(g, m) }

// Query API v2: a first-class, context-aware request object.
//
// Ranker.Rank(ctx, RankRequest) is the core query entry point: every field
// of the request except Src and Dst is optional, zero values select the
// ranker's configured defaults, and a RankRequest{Src: s, Dst: d} ranking
// is bit-identical to the plain reference pipeline (Dijkstra candidates,
// per-path scoring). Canceling ctx stops an in-flight candidate
// enumeration. The same request shape travels over HTTP as POST /v2/rank
// (see Client).
type (
	// RankRequest is one origin-destination ranking query with optional
	// per-request overrides (k, strategy, diversity threshold, weight
	// metric, explain).
	RankRequest = pathrank.RankRequest
	// RankResponse pairs the ranked paths with generation statistics.
	RankResponse = pathrank.RankResponse
	// RankStats describes how a ranking was produced.
	RankStats = pathrank.RankStats
	// Regime is the effective candidate regime of a request after
	// overrides; RankStats embeds it.
	Regime = pathrank.Regime
	// RankError is a typed ranking failure; its Code is one of the Code*
	// constants and maps onto an HTTP status in the serving layer.
	RankError = pathrank.RankError
	// StrategyChoice optionally overrides the candidate strategy.
	StrategyChoice = pathrank.StrategyChoice
	// WeightKind optionally overrides the edge metric.
	WeightKind = pathrank.WeightKind
)

// Per-request override values; the *Auto zero values keep the ranker's
// configured defaults.
const (
	StrategyAuto  = pathrank.StrategyAuto
	StrategyTkDI  = pathrank.StrategyTkDI
	StrategyDTkDI = pathrank.StrategyDTkDI

	WeightAuto   = pathrank.WeightAuto
	WeightLength = pathrank.WeightLength
	WeightTime   = pathrank.WeightTime
)

// Typed error codes of the query API; ErrorCodeOf classifies any error
// returned by Rank or Client into one of them.
const (
	CodeInvalid    = api.CodeInvalid
	CodeUnroutable = api.CodeUnroutable
	CodeDeadline   = api.CodeDeadline
	CodeCanceled   = api.CodeCanceled
	CodeBacklog    = api.CodeBacklog
	CodeInternal   = api.CodeInternal
)

// ErrorCodeOf classifies err into one of the Code* constants.
func ErrorCodeOf(err error) string { return pathrank.ErrorCodeOf(err) }

// ParseStrategyChoice parses "tkdi" or "dtkdi" ("", "auto" = default).
func ParseStrategyChoice(s string) (StrategyChoice, error) { return pathrank.ParseStrategyChoice(s) }

// ParseWeightKind parses "length" or "time" ("", "auto" = default).
func ParseWeightKind(s string) (WeightKind, error) { return pathrank.ParseWeightKind(s) }

// Artifact persistence: a complete trained pipeline (network, model) as
// one versioned, checksummed bundle.
type (
	// Artifact bundles a trained pipeline for persistence and serving.
	Artifact = pathrank.Artifact
)

// Artifact error sentinels, matchable with errors.Is.
var (
	// ErrArtifactFormat reports a file that is not a pathrank artifact.
	ErrArtifactFormat = pathrank.ErrArtifactFormat
	// ErrArtifactVersion reports an artifact written by an incompatible
	// format version.
	ErrArtifactVersion = pathrank.ErrArtifactVersion
	// ErrArtifactCorrupt reports a checksum mismatch or truncated payload.
	ErrArtifactCorrupt = pathrank.ErrArtifactCorrupt
)

// SaveArtifact writes the artifact to w in the artifact file format: a
// checksummed payload followed by the graph's flat arrays, themselves
// covered by a digest inside the payload.
func SaveArtifact(w io.Writer, a *Artifact) error { return pathrank.SaveArtifact(w, a) }

// LoadArtifact reads an artifact written by SaveArtifact, verifying version,
// checksum, digest and array contents; the reloaded model ranks
// bit-identically to the saved one. Files in the retired formats 1 and 2
// fail with ErrArtifactVersion.
func LoadArtifact(r io.Reader) (*Artifact, error) { return pathrank.LoadArtifact(r) }

// SaveArtifactFile publishes the artifact at path atomically and durably
// (temp file, fsync, rename): a reader never sees a partial file, and a
// server that has the previous file memory-mapped is not disturbed.
func SaveArtifactFile(path string, a *Artifact) error { return pathrank.SaveArtifactFile(path, a) }

// LoadArtifactFile reads an artifact from the named file.
func LoadArtifactFile(path string) (*Artifact, error) { return pathrank.LoadArtifactFile(path) }

// Data provenance: the trainer (pathrank-train -wal-dir, the live mode)
// commits every training batch into an RFC 6962 Merkle tree and chains
// the batch roots across generations; every published artifact's lineage
// carries both commitments, and the trainer hands out per-trajectory
// inclusion proofs.
type (
	// ProvenanceInfo describes the serving generation's data commitments
	// and, when a WAL is configured, the health of the trajectory log.
	ProvenanceInfo = api.ProvenanceInfo
	// InclusionProof proves that one ingested trajectory is part of the
	// training batch committed by a generation's DataRoot.
	InclusionProof = api.InclusionProof
	// WALStatus reports trajectory write-ahead-log health.
	WALStatus = api.WALStatus
)

// VerifyInclusionProof checks p offline: it parses the hex-encoded leaf
// hash, audit path, and data root, and verifies that the leaf at p.Index
// rolls up to p.DataRoot in a batch of p.BatchSize leaves. A nil return
// means the trajectory is provably part of the committed training batch;
// the caller is responsible for trusting p.DataRoot (e.g. matching it
// against the lineage a server's /healthz or the trainer's GET
// /v1/provenance reports).
func VerifyInclusionProof(p InclusionProof) error {
	leaf, err := merkle.ParseHash(p.LeafHash)
	if err != nil {
		return fmt.Errorf("pathrank: inclusion proof leaf hash: %w", err)
	}
	root, err := merkle.ParseHash(p.DataRoot)
	if err != nil {
		return fmt.Errorf("pathrank: inclusion proof data root: %w", err)
	}
	path := make([]merkle.Hash, len(p.Path))
	for i, s := range p.Path {
		if path[i], err = merkle.ParseHash(s); err != nil {
			return fmt.Errorf("pathrank: inclusion proof path[%d]: %w", i, err)
		}
	}
	proof := merkle.Proof{Index: p.Index, Leaves: p.BatchSize, Path: path}
	if !proof.Verify(leaf, root) {
		return fmt.Errorf("pathrank: inclusion proof for trajectory %d does not verify against data root %.12s", p.Seq, p.DataRoot)
	}
	return nil
}

// EmbedNetwork trains node2vec embeddings for g.
func EmbedNetwork(g *Graph, wc node2vec.WalkConfig, tc node2vec.TrainConfig) *Embeddings {
	return node2vec.Embed(g, wc, tc)
}

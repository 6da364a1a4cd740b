package pathrank

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pathrank/internal/api"
	"pathrank/internal/dataset"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

// StrategyChoice optionally overrides the ranker's candidate-generation
// strategy for one request. The zero value keeps the configured default.
type StrategyChoice uint8

// Per-request strategy choices.
const (
	// StrategyAuto keeps the ranker's configured strategy.
	StrategyAuto StrategyChoice = iota
	// StrategyTkDI forces plain top-k shortest paths.
	StrategyTkDI
	// StrategyDTkDI forces diversified top-k shortest paths.
	StrategyDTkDI
)

// String names the choice as accepted by ParseStrategyChoice.
func (s StrategyChoice) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyTkDI:
		return "tkdi"
	case StrategyDTkDI:
		return "dtkdi"
	default:
		return fmt.Sprintf("strategy(%d)", uint8(s))
	}
}

// ParseStrategyChoice parses a strategy name ("", "auto", "tkdi", "dtkdi").
func ParseStrategyChoice(s string) (StrategyChoice, error) {
	switch s {
	case "", "auto":
		return StrategyAuto, nil
	case "tkdi", "topk":
		return StrategyTkDI, nil
	case "dtkdi", "diversified":
		return StrategyDTkDI, nil
	default:
		return StrategyAuto, rankErrf(api.CodeInvalid, "unknown strategy %q (want tkdi or dtkdi)", s)
	}
}

// WeightKind optionally overrides the edge metric for one request. The
// zero value keeps the configured default (length).
type WeightKind uint8

// Per-request weight kinds.
const (
	// WeightAuto keeps the default metric (length).
	WeightAuto WeightKind = iota
	// WeightLength ranks by geometric length in meters.
	WeightLength
	// WeightTime ranks by free-flow travel time in seconds.
	WeightTime
)

// String names the kind as accepted by ParseWeightKind.
func (w WeightKind) String() string {
	switch w {
	case WeightAuto:
		return "auto"
	case WeightLength:
		return "length"
	case WeightTime:
		return "time"
	default:
		return fmt.Sprintf("weight(%d)", uint8(w))
	}
}

// ParseWeightKind parses a weight name ("", "auto", "length", "time").
func ParseWeightKind(s string) (WeightKind, error) {
	switch s {
	case "", "auto":
		return WeightAuto, nil
	case "length", "distance":
		return WeightLength, nil
	case "time":
		return WeightTime, nil
	default:
		return WeightAuto, rankErrf(api.CodeInvalid, "unknown weight %q (want length or time)", s)
	}
}

// EngineChoice is the type of RankRequest.Engine, which selects nothing:
// candidate generation runs on the ranker's weight table whatever the
// request names. It is kept, with its two values, only because benchmark/
// sets RankRequest.Engine to EngineNone and may not be edited.
type EngineChoice uint8

// The engine choices RankRequest.Engine accepts; neither changes anything.
const (
	EngineAuto EngineChoice = iota
	EngineNone
)

// RankRequest is a first-class ranking query: an origin-destination pair
// plus per-request overrides of the candidate regime. Every field except
// Src and Dst is optional — the zero value of each override keeps the
// ranker's configured default, so RankRequest{Src: s, Dst: d} ranks with
// the configured regime.
type RankRequest struct {
	Src roadnet.VertexID
	Dst roadnet.VertexID
	// K overrides the candidate-set size when positive. A D-TkDI probe
	// budget configured on the ranker is scaled proportionally, so the
	// probe-to-k ratio the model was built with is preserved.
	K int
	// Strategy overrides the candidate-generation strategy.
	Strategy StrategyChoice
	// Threshold overrides the D-TkDI similarity threshold when positive;
	// it must lie in (0, 1].
	Threshold float64
	// MaxProbe overrides the D-TkDI enumeration budget when positive.
	MaxProbe int
	// Weight overrides the edge metric.
	Weight WeightKind
	// Engine is ignored (see EngineChoice).
	Engine EngineChoice
	// Explain asks the serving layer to include RankStats in its
	// response; the in-process Rank fills stats regardless.
	Explain bool
}

// Weight returns the metric's edge-weight function; WeightAuto is the
// default metric, length.
func (w WeightKind) Weight() spath.Weight {
	if w == WeightTime {
		return spath.ByTime
	}
	return spath.ByLength
}

// Regime is the effective candidate regime of one request: the snapshot's
// defaults with every override applied. Two requests for the same
// origin-destination pair that resolve to equal regimes produce the same
// ranking, which is what the serving layer keys its result cache on.
type Regime struct {
	// Strategy, K, Threshold and MaxProbe are the effective candidate
	// configuration after overrides.
	Strategy  dataset.Strategy
	K         int
	Threshold float64
	MaxProbe  int
	// Weight is the effective edge metric (never WeightAuto).
	Weight WeightKind
}

// RankStats describes how a ranking was produced: the resolved candidate
// regime and where the time went.
type RankStats struct {
	Regime
	// Candidates is the number of candidate paths generated.
	Candidates int
	// GenNanos and ScoreNanos split the query cost into candidate
	// generation and NN scoring.
	GenNanos   int64
	ScoreNanos int64
}

// Wire renders the stats in the query API's explain shape.
func (st RankStats) Wire() *api.RankStats {
	return &api.RankStats{
		Strategy:   st.Strategy.String(),
		K:          st.K,
		Threshold:  st.Threshold,
		MaxProbe:   st.MaxProbe,
		Weight:     st.Weight.String(),
		Candidates: st.Candidates,
		GenNs:      st.GenNanos,
		ScoreNs:    st.ScoreNanos,
	}
}

// RankResponse is the result of one Rank call: the scored candidates, best
// first, plus generation statistics.
type RankResponse struct {
	Paths []Ranked
	Stats RankStats
}

// RankError is a typed ranking failure; Code is one of the api.Code*
// constants, so the serving layer can map it onto an HTTP status without
// string matching.
type RankError struct {
	Code    string
	Message string
	// Err is the wrapped cause, when any.
	Err error
}

// Error implements the error interface.
func (e *RankError) Error() string {
	return "pathrank: " + e.Message
}

// Unwrap returns the wrapped cause.
func (e *RankError) Unwrap() error { return e.Err }

// rankErrf builds a RankError with a formatted message.
func rankErrf(code, format string, args ...any) *RankError {
	return &RankError{Code: code, Message: fmt.Sprintf(format, args...)}
}

// ErrorCodeOf classifies err into an api error code: a RankError carries
// its own code; spath.ErrNoPath is unroutable; context expiry maps to the
// deadline/cancel codes; anything else is internal.
func ErrorCodeOf(err error) string {
	var re *RankError
	if errors.As(err, &re) {
		return re.Code
	}
	switch {
	case errors.Is(err, spath.ErrNoPath):
		return api.CodeUnroutable
	case errors.Is(err, context.DeadlineExceeded):
		return api.CodeDeadline
	case errors.Is(err, context.Canceled):
		return api.CodeCanceled
	}
	return api.CodeInternal
}

// APIError renders err as the wire error every serving tier answers with:
// an *api.Error passes through, anything else is classified by
// ErrorCodeOf. A RankError contributes its bare message, so a query reads
// the same whichever tier rejected it.
func APIError(err error) *api.Error {
	var ae *api.Error
	if errors.As(err, &ae) {
		return ae
	}
	var re *RankError
	if errors.As(err, &re) {
		return &api.Error{Status: api.HTTPStatus(re.Code), Code: re.Code, Message: re.Message}
	}
	code := ErrorCodeOf(err)
	return &api.Error{Status: api.HTTPStatus(code), Code: code, Message: err.Error()}
}

// checkRanges is the range half of the query rules, applied to wire
// queries (RequestFromQuery) and in-process requests (CandidatesFor)
// alike. maxK <= 0 leaves k and max_probe uncapped; otherwise max_probe is
// capped at 10·maxK, spath's own probe-to-k ratio, since the probe budget
// also sizes the enumeration's pending list.
func checkRanges(src, dst int64, k int, threshold float64, maxProbe, vertices, maxK int) error {
	n := int64(vertices)
	switch {
	case src < 0 || src >= n || dst < 0 || dst >= n:
		return rankErrf(api.CodeInvalid, "src/dst must be in [0,%d)", n)
	case maxK > 0 && (k < 0 || k > maxK):
		return rankErrf(api.CodeInvalid, "k must be in [0,%d]", maxK)
	case k < 0:
		return rankErrf(api.CodeInvalid, "k must be non-negative")
	case !(threshold >= 0 && threshold <= 1):
		return rankErrf(api.CodeInvalid, "threshold must be in [0,1], got %g", threshold)
	case maxK > 0 && (maxProbe < 0 || maxProbe > 10*maxK):
		return rankErrf(api.CodeInvalid, "max_probe must be in [0,%d]", 10*maxK)
	case maxProbe < 0:
		return rankErrf(api.CodeInvalid, "max_probe must be non-negative")
	}
	return nil
}

// RequestFromQuery validates a wire query against a road network of the
// given vertex count and a k cap, and parses its strategy and weight
// names. Together with Resolve it is the only home of the query rules: the
// in-process Ranker, the HTTP server and the shard router all go through
// the pair, so they cannot disagree on what a query means.
func RequestFromQuery(q api.RankQuery, vertices, maxK int) (RankRequest, error) {
	if err := checkRanges(q.Src, q.Dst, q.K, q.Threshold, q.MaxProbe, vertices, maxK); err != nil {
		return RankRequest{}, err
	}
	strategy, err := ParseStrategyChoice(q.Strategy)
	if err != nil {
		return RankRequest{}, err
	}
	weight, err := ParseWeightKind(q.Weight)
	if err != nil {
		return RankRequest{}, err
	}
	return RankRequest{
		Src: roadnet.VertexID(q.Src), Dst: roadnet.VertexID(q.Dst),
		K: q.K, Strategy: strategy, Threshold: q.Threshold, MaxProbe: q.MaxProbe,
		Weight: weight, Explain: q.Explain,
	}, nil
}

// Resolve materializes the effective regime of req on top of the default
// candidate configuration def (the paper's setup when def is empty).
func Resolve(req RankRequest, def dataset.Config) (Regime, error) {
	if def.K <= 0 {
		def = dataset.DefaultConfig()
	}
	rg := Regime{
		Strategy: def.Strategy, K: def.K, Threshold: def.Threshold, MaxProbe: def.MaxProbe,
		Weight: WeightLength,
	}
	switch req.Strategy {
	case StrategyAuto:
	case StrategyTkDI:
		rg.Strategy = dataset.TkDI
	case StrategyDTkDI:
		rg.Strategy = dataset.DTkDI
	default:
		return Regime{}, rankErrf(api.CodeInvalid, "unknown strategy %d", req.Strategy)
	}
	// A k equal to the default is a no-op by definition; a genuine override
	// scales a default probe budget proportionally, so the probe-to-k ratio
	// the model was built with is preserved. An explicit max_probe pins it.
	if req.K > 0 && req.K != rg.K {
		if rg.MaxProbe > 0 {
			rg.MaxProbe = rg.MaxProbe * req.K / rg.K
		}
		rg.K = req.K
	}
	if req.Threshold > 0 {
		rg.Threshold = req.Threshold
	}
	if req.MaxProbe > 0 {
		rg.MaxProbe = req.MaxProbe
	}
	if req.Weight == WeightTime {
		rg.Weight = WeightTime
	}
	return rg, nil
}

// CandidatesFor generates the candidate set for req, honoring ctx, and
// reports the resolved regime. It is the candidate-generation half of
// Rank, exposed for measurements that time generation apart from scoring;
// every served ranking goes through Rank.
func (r *Ranker) CandidatesFor(ctx context.Context, req RankRequest) ([]spath.Path, RankStats, error) {
	var stats RankStats
	err := checkRanges(int64(req.Src), int64(req.Dst), req.K, req.Threshold, req.MaxProbe, r.Graph.NumVertices(), 0)
	if err != nil {
		return nil, stats, err
	}
	rg, err := Resolve(req, r.Candidates)
	if err != nil {
		return nil, stats, err
	}
	stats.Regime = rg
	cfg := dataset.Config{Strategy: rg.Strategy, K: rg.K, Threshold: rg.Threshold, MaxProbe: rg.MaxProbe}
	cands, _, err := cfg.Candidates(ctx, r.Graph, r.weights(rg.Weight), nil, nil, req.Src, req.Dst)
	if err != nil {
		return nil, stats, fmt.Errorf("pathrank: candidate generation %d->%d: %w", req.Src, req.Dst, err)
	}
	stats.Candidates = len(cands)
	return cands, stats, nil
}

// Rank is the core query entry point: it generates candidates for req
// under ctx and returns them with model scores, best first. With a
// zero-valued override set the ranking is bit-identical to the plain
// reference pipeline: CandidatesFor, ScoreBatchPerPath, then RankScored.
// Canceling ctx stops an in-flight enumeration and returns ctx's error
// (ErrorCodeOf maps it to a deadline or cancellation code).
func (r *Ranker) Rank(ctx context.Context, req RankRequest) (RankResponse, error) {
	genStart := time.Now()
	cands, stats, err := r.CandidatesFor(ctx, req)
	if err != nil {
		return RankResponse{}, err
	}
	stats.GenNanos = time.Since(genStart).Nanoseconds()
	scoreStart := time.Now()
	ranked := r.Model.Rank(cands)
	stats.ScoreNanos = time.Since(scoreStart).Nanoseconds()
	return RankResponse{Paths: ranked, Stats: stats}, nil
}

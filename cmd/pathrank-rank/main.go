// Command pathrank-rank answers one origin-destination ranking query,
// mimicking a navigation service that proposes ranked alternatives. It
// speaks the Query API v2 request shape in both of its modes:
//
// Local mode loads a trained artifact bundle (written by pathrank-train
// -artifact) and ranks in process:
//
//	pathrank-rank -artifact model.prart -src 12 -dst 431 -k 8 -strategy dtkdi
//
// Server mode sends the same query to a running pathrank-serve through the
// pathrank.Client SDK:
//
//	pathrank-rank -server http://localhost:8080 -src 12 -dst 431 -k 8
//
// Either way the candidate regime is per-request configurable (-k,
// -strategy, -threshold, -weight) and -timeout bounds the
// computation: an expiring deadline cancels the in-flight enumeration.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"time"

	"pathrank"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pathrank-rank: ")

	artifactPath := flag.String("artifact", "model.prart", "trained artifact bundle (local mode)")
	server := flag.String("server", "", "pathrank-serve base URL; set to query a running server instead of loading the artifact")
	src := flag.Int64("src", 0, "source vertex ID")
	dst := flag.Int64("dst", -1, "destination vertex ID (-1 = last vertex, local mode only)")
	k := flag.Int("k", 0, "candidate-set size override (0 = artifact default)")
	strategy := flag.String("strategy", "", "candidate strategy override: tkdi or dtkdi (empty = artifact default)")
	threshold := flag.Float64("threshold", 0, "D-TkDI similarity threshold override in (0,1]")
	weight := flag.String("weight", "", "edge metric override: length or time")
	explain := flag.Bool("explain", false, "print candidate-generation statistics")
	timeout := flag.Duration("timeout", 0, "query deadline (0 = none)")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *server != "" {
		rankRemote(ctx, *server, *src, *dst, *k, *strategy, *threshold, *weight, *explain)
		return
	}
	rankLocal(ctx, *artifactPath, *src, *dst, *k, *strategy, *threshold, *weight, *explain)
}

// rankLocal loads the artifact bundle and ranks in process through the
// core Ranker.Rank entry point.
func rankLocal(ctx context.Context, artifactPath string, src, dst int64, k int, strategy string, threshold float64, weight string, explain bool) {
	// Validate the choice flags before paying for the artifact load —
	// a typo should fail instantly, not after reading a large bundle.
	req := pathrank.RankRequest{K: k, Threshold: threshold, Explain: explain}
	var err error
	if req.Strategy, err = pathrank.ParseStrategyChoice(strategy); err != nil {
		log.Fatal(err)
	}
	if req.Weight, err = pathrank.ParseWeightKind(weight); err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	art, err := pathrank.LoadArtifactFile(artifactPath)
	if err != nil {
		log.Fatal(err)
	}
	ranker := art.NewRanker()
	fmt.Printf("loaded %s in %v: %d vertices, %d edges, %d params\n",
		artifactPath, time.Since(start).Round(time.Millisecond),
		art.Graph.NumVertices(), art.Graph.NumEdges(), art.Model.NumParams())

	if dst < 0 {
		dst = int64(art.Graph.NumVertices() - 1)
	}
	req.Src = pathrank.VertexID(src)
	req.Dst = pathrank.VertexID(dst)

	resp, err := ranker.Rank(ctx, req)
	if err != nil {
		log.Fatalf("%v (code %s)", err, pathrank.ErrorCodeOf(err))
	}
	fmt.Printf("query %d -> %d: %d candidates\n", src, dst, len(resp.Paths))
	for i, rk := range resp.Paths {
		fmt.Printf("#%d score=%.4f length=%.0fm time=%.0fs hops=%d\n",
			i+1, rk.Score, rk.Path.Length(art.Graph), rk.Path.Time(art.Graph), rk.Path.Len())
	}
	if explain {
		st := resp.Stats
		fmt.Printf("stats: strategy=%s k=%d threshold=%g weight=%s gen=%v score=%v\n",
			st.Strategy, st.K, st.Threshold, st.Weight,
			time.Duration(st.GenNanos).Round(time.Microsecond),
			time.Duration(st.ScoreNanos).Round(time.Microsecond))
	}
}

// rankRemote sends the query to a running pathrank-serve over HTTP.
func rankRemote(ctx context.Context, server string, src, dst int64, k int, strategy string, threshold float64, weight string, explain bool) {
	if dst < 0 {
		log.Fatal("server mode needs an explicit -dst")
	}
	client := &pathrank.Client{BaseURL: server}
	res, err := client.Rank(ctx, pathrank.RankQuery{
		Src: src, Dst: dst, K: k,
		Strategy: strategy, Threshold: threshold,
		Weight: weight, Explain: explain,
	})
	if err != nil {
		var apiErr *pathrank.APIError
		if errors.As(err, &apiErr) {
			log.Fatalf("%s (code %s, HTTP %d)", apiErr.Message, apiErr.Code, apiErr.Status)
		}
		log.Fatal(err)
	}
	cached := ""
	if res.Cached {
		cached = " (cached)"
	}
	fmt.Printf("query %d -> %d: %d candidates%s\n", res.Src, res.Dst, len(res.Paths), cached)
	for _, p := range res.Paths {
		fmt.Printf("#%d score=%.4f length=%.0fm time=%.0fs hops=%d\n",
			p.Rank, p.Score, p.LengthM, p.TimeS, p.Hops)
	}
	if res.Stats != nil {
		st := res.Stats
		fmt.Printf("stats: strategy=%s k=%d threshold=%g weight=%s candidates=%d gen=%v score=%v\n",
			st.Strategy, st.K, st.Threshold, st.Weight, st.Candidates,
			time.Duration(st.GenNs).Round(time.Microsecond),
			time.Duration(st.ScoreNs).Round(time.Microsecond))
	}
}

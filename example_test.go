package pathrank_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"

	"pathrank"
)

// ExampleRankRequest builds a fully overridden query for the context-aware
// core entry point. Zero-valued fields keep the ranker's configured
// defaults, so RankRequest{Src: s, Dst: d} ranks with the configured
// regime; here every knob of the candidate regime is set per request.
func ExampleRankRequest() {
	req := pathrank.RankRequest{
		Src:       12,
		Dst:       431,
		K:         8,                      // candidate-set size
		Strategy:  pathrank.StrategyDTkDI, // diversified top-k (D-TkDI)
		Threshold: 0.6,                    // diversity threshold
		Weight:    pathrank.WeightTime,    // rank fastest, not shortest
		Explain:   true,                   // fill RankStats in the response
	}
	// With a trained ranker this would run:
	//   resp, err := ranker.Rank(ctx, req)
	// and ctx cancellation would stop the candidate enumeration mid-search.
	fmt.Printf("%d->%d k=%d strategy=%s weight=%s\n",
		req.Src, req.Dst, req.K, req.Strategy, req.Weight)
	// Output:
	// 12->431 k=8 strategy=dtkdi weight=time
}

// ExampleClient queries a pathrank-serve instance through the Go SDK. The
// handler here stands in for a real server (run `pathrank-serve -artifact
// model.prart` and point BaseURL at it); the request and response shapes
// are exactly the POST /v2/rank wire format.
func ExampleClient() {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// One ranked path for query 0 -> 9.
		fmt.Fprint(w, `{"src":0,"dst":9,"k":2,"cached":false,"paths":[`+
			`{"rank":1,"score":0.91,"length_m":1250,"time_s":96,"hops":5,"vertices":[0,3,5,7,8,9]}]}`)
	}))
	defer ts.Close()

	client := &pathrank.Client{BaseURL: ts.URL}
	res, err := client.Rank(context.Background(), pathrank.RankQuery{Src: 0, Dst: 9, K: 2})
	if err != nil {
		// Failures carry typed codes: pathrank.ErrorCodeOf(err) is one of
		// CodeInvalid, CodeUnroutable, CodeDeadline, CodeCanceled,
		// CodeBacklog, CodeInternal.
		fmt.Println("rank failed:", pathrank.ErrorCodeOf(err))
		return
	}
	best := res.Paths[0]
	fmt.Printf("%d paths; best score %.2f over %.0f m\n", len(res.Paths), best.Score, best.LengthM)
	// Output:
	// 1 paths; best score 0.91 over 1250 m
}

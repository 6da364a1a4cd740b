package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"pathrank/internal/api"
	"pathrank/internal/dataset"
	"pathrank/internal/geo"
	"pathrank/internal/partition"
	"pathrank/internal/pathrank"
	"pathrank/internal/roadnet"
	"pathrank/internal/serve"
	"pathrank/internal/shardserve"
)

// deployment is one full sharded topology over httptest servers — shard
// workers, the router over them, and a single-process reference server
// over the same unpartitioned artifact for bit-identity checks.
type deployment struct {
	art       *pathrank.Artifact // the unpartitioned artifact
	sm        *partition.ShardMap
	router    *httptest.Server
	shards    []*httptest.Server
	reference *httptest.Server

	// tamper, when set, rewrites each 200 body a shard worker answers on
	// a sub-query path before it leaves the worker.
	tamper atomic.Pointer[func(shard int, path string, body []byte) []byte]
	// corridorBytes and corridorCalls count /shard/corridor answers.
	corridorBytes, corridorCalls atomic.Int64
}

// countingWriter counts the body bytes written through it.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// tap sits in front of shard worker shard's handler: it counts corridor
// bytes and applies d.tamper.
func (d *deployment) tap(shard int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tamper := d.tamper.Load()
		if tamper == nil || !strings.HasPrefix(r.URL.Path, "/shard/") {
			cw := &countingWriter{ResponseWriter: w}
			h.ServeHTTP(cw, r)
			if r.URL.Path == "/shard/corridor" {
				d.corridorBytes.Add(cw.n)
				d.corridorCalls.Add(1)
			}
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK {
			body = (*tamper)(shard, r.URL.Path, body)
		}
		maps.Copy(w.Header(), rec.Header())
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

// buildDeployment partitions a jittered random grid into parts shards and
// stands the whole serving tier up in-process. Continuous jittered
// coordinates make edge weights continuous, so shortest paths are unique
// with probability one and exact path/score comparisons are meaningful.
func buildDeployment(t testing.TB, seed int64, parts int) *deployment {
	t.Helper()
	g, err := roadnet.Generate(roadnet.GenConfig{
		Rows: 8, Cols: 9, SpacingM: 220, JitterFrac: 0.3,
		RemoveFrac: 0.07, ArterialEvery: 4, Motorway: true,
		Origin: geo.Point{Lon: 10, Lat: 57}, Seed: seed,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	model, err := pathrank.New(g.NumVertices(), pathrank.Config{
		EmbeddingDim: 8, Hidden: 6, Variant: pathrank.PRA2, Body: pathrank.GRUBody, Seed: seed,
	})
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	art := &pathrank.Artifact{
		Graph: g, Model: model,
		// An explicit probe budget at the implicit default's value (10*K), so
		// the k-scaling rule is observable without changing any ranking.
		Candidates: dataset.Config{Strategy: dataset.DTkDI, K: 4, Threshold: 0.8, MaxProbe: 40},
	}
	dir := t.TempDir()
	if _, err := partition.BuildBundle(art, dir, parts, nil); err != nil {
		t.Fatalf("bundle: %v", err)
	}

	d := &deployment{art: art}
	urls := make([]string, parts)
	for i := 0; i < parts; i++ {
		sart, err := pathrank.LoadArtifactFile(dir + "/" + partition.ShardArtifactName(i))
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		srv, err := serve.New(sart, serve.Config{})
		if err != nil {
			t.Fatalf("shard %d server: %v", i, err)
		}
		t.Cleanup(srv.Close)
		ss, err := shardserve.New(srv)
		if err != nil {
			t.Fatalf("shard %d worker: %v", i, err)
		}
		ts := httptest.NewServer(d.tap(i, ss.Handler()))
		t.Cleanup(ts.Close)
		d.shards = append(d.shards, ts)
		urls[i] = ts.URL
	}

	sm, err := partition.LoadShardMapFile(dir)
	if err != nil {
		t.Fatalf("shard map: %v", err)
	}
	d.sm = sm
	rt, err := New(sm, Config{Shards: urls, HedgeAfter: -1})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	d.router = httptest.NewServer(rt.Handler())
	t.Cleanup(d.router.Close)

	// The reference is a single server on the whole artifact.
	ref, err := serve.New(art, serve.Config{})
	if err != nil {
		t.Fatalf("reference server: %v", err)
	}
	t.Cleanup(ref.Close)
	d.reference = httptest.NewServer(ref.Handler())
	t.Cleanup(d.reference.Close)
	return d
}

// postRank POSTs one query to a server's /v2/rank and decodes either the
// result or the typed error envelope.
func postRank(t testing.TB, baseURL string, q api.RankQuery) (*api.RankResult, *api.Error, *http.Response) {
	t.Helper()
	body, err := json.Marshal(api.RankRequest{RankQuery: q})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v2/rank", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", baseURL, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		var env api.ErrorEnvelope
		if err := json.Unmarshal(raw, &env); err != nil || env.Error == nil {
			t.Fatalf("HTTP %d with unparseable error body %q", resp.StatusCode, raw)
		}
		env.Error.Status = resp.StatusCode
		return nil, env.Error, resp
	}
	var res api.RankResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("bad rank response %q: %v", raw, err)
	}
	return &res, nil, resp
}

// pairs returns deterministic OD pairs with the requested shard
// relationship (cross-shard or co-resident), up to max.
func (d *deployment) pairs(cross bool, max int) [][2]int64 {
	var out [][2]int64
	n := d.sm.NumVertices
	for src := 0; src < n && len(out) < max; src += 5 {
		for dst := 1; dst < n && len(out) < max; dst += 7 {
			if src == dst {
				continue
			}
			if (d.sm.Owner[src] != d.sm.Owner[dst]) == cross {
				out = append(out, [2]int64{int64(src), int64(dst)})
			}
		}
	}
	return out
}

// TestRouterCrossShardBitIdentity is the acceptance property: a
// cross-shard query answered by the router over corridor stitching must
// return exactly — paths AND scores, bit for bit — what a single-process
// server over the unpartitioned artifact returns, across random
// partitioned graphs, both candidate strategies, and many OD pairs.
func TestRouterCrossShardBitIdentity(t *testing.T) {
	for _, tc := range []struct {
		seed  int64
		parts int
	}{{5, 2}, {21, 3}} {
		t.Run(fmt.Sprintf("seed=%d/parts=%d", tc.seed, tc.parts), func(t *testing.T) {
			d := buildDeployment(t, tc.seed, tc.parts)
			pairs := d.pairs(true, 8)
			if len(pairs) < 4 {
				t.Fatalf("only %d cross-shard pairs; split degenerate", len(pairs))
			}
			nonEmpty := 0
			for _, p := range pairs {
				for _, strategy := range []string{"tkdi", "dtkdi"} {
					q := api.RankQuery{Src: p[0], Dst: p[1], K: 3, Strategy: strategy}
					got, gotErr, _ := postRank(t, d.router.URL, q)
					want, wantErr, _ := postRank(t, d.reference.URL, q)
					if (gotErr == nil) != (wantErr == nil) {
						t.Fatalf("%d->%d %s: router err %v, reference err %v", p[0], p[1], strategy, gotErr, wantErr)
					}
					if gotErr != nil {
						if gotErr.Code != wantErr.Code {
							t.Fatalf("%d->%d %s: router code %s, reference code %s", p[0], p[1], strategy, gotErr.Code, wantErr.Code)
						}
						continue
					}
					if !reflect.DeepEqual(got.Paths, want.Paths) {
						t.Fatalf("%d->%d %s: router paths diverge from single-process paths\nrouter:    %+v\nreference: %+v",
							p[0], p[1], strategy, got.Paths, want.Paths)
					}
					if len(got.Paths) > 0 {
						nonEmpty++
					}
				}
			}
			if nonEmpty == 0 {
				t.Fatal("every checked pair came back empty; test is vacuous")
			}
		})
	}
}

// TestRouterCoShardProxy checks co-resident routing: the router's answer
// is exactly the owning shard worker's own answer, explain stats carry
// the route and the proxy call accounting, and a non-explain answer is the
// shard's body relayed byte for byte (the explain query before it put the
// ranking in the shard's cache, so both bodies say "cached":true).
func TestRouterCoShardProxy(t *testing.T) {
	d := buildDeployment(t, 5, 2)
	pairs := d.pairs(false, 4)
	if len(pairs) == 0 {
		t.Fatal("no co-resident pairs")
	}
	for _, p := range pairs {
		q := api.RankQuery{Src: p[0], Dst: p[1], K: 3, Explain: true}
		got, gotErr, _ := postRank(t, d.router.URL, q)
		if gotErr != nil {
			t.Fatalf("%d->%d: %v", p[0], p[1], gotErr)
		}
		shard := d.shards[d.sm.Owner[p[0]]]
		want, wantErr, _ := postRank(t, shard.URL, q)
		if wantErr != nil {
			t.Fatalf("%d->%d direct: %v", p[0], p[1], wantErr)
		}
		if !reflect.DeepEqual(got.Paths, want.Paths) {
			t.Fatalf("%d->%d: proxied paths differ from the shard's own", p[0], p[1])
		}
		if got.Stats == nil || got.Stats.Route != "co_shard" {
			t.Fatalf("%d->%d: stats %+v, want route co_shard", p[0], p[1], got.Stats)
		}
		last := got.Stats.Shards[len(got.Stats.Shards)-1]
		if last.Role != "proxy" || last.Shard != int(d.sm.Owner[p[0]]) || last.Calls < 1 {
			t.Fatalf("%d->%d: proxy shard stat %+v", p[0], p[1], last)
		}
		// Without explain there is nothing to stamp: the router relays the
		// owning shard's body byte for byte, headers included.
		q.Explain = false
		gotResp, gotBody := postRaw(t, d.router.URL, q)
		wantResp, wantBody := postRaw(t, shard.URL, q)
		if gotResp.StatusCode != http.StatusOK || !bytes.Equal(gotBody, wantBody) ||
			gotResp.Header.Get("Content-Type") != wantResp.Header.Get("Content-Type") {
			t.Fatalf("%d->%d: relayed %d %q %q, shard %d %q %q", p[0], p[1],
				gotResp.StatusCode, gotResp.Header.Get("Content-Type"), gotBody,
				wantResp.StatusCode, wantResp.Header.Get("Content-Type"), wantBody)
		}
	}
}

// postRaw posts q to baseURL's /v2/rank and returns the response with its
// body as written.
func postRaw(t testing.TB, baseURL string, q api.RankQuery) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(api.RankRequest{RankQuery: q})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v2/rank", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", baseURL, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestRouterCrossShardExplain checks the routed-stats surface of a
// stitched query: the route marker and the boundary + corridor shard
// breakdown the load generator aggregates.
func TestRouterCrossShardExplain(t *testing.T) {
	d := buildDeployment(t, 5, 2)
	pairs := d.pairs(true, 1)
	if len(pairs) == 0 {
		t.Fatal("no cross-shard pairs")
	}
	q := api.RankQuery{Src: pairs[0][0], Dst: pairs[0][1], K: 3, Explain: true}
	res, apiErr, _ := postRank(t, d.router.URL, q)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if res.Stats == nil || res.Stats.Route != "cross_shard" {
		t.Fatalf("stats %+v, want route cross_shard", res.Stats)
	}
	roles := map[string]int{}
	for _, st := range res.Stats.Shards {
		roles[st.Role]++
		if st.Calls < 1 {
			t.Fatalf("shard stat %+v reports no calls", st)
		}
	}
	if roles["boundary"] != 2 {
		t.Fatalf("want 2 boundary sweeps (one per endpoint shard), got %+v", roles)
	}
	if roles["corridor"] < 2 {
		t.Fatalf("want corridor extraction on both endpoint shards, got %+v", roles)
	}
}

// TestRouterBatch posts a mixed batch — co-resident, cross-shard, and one
// invalid query — and checks per-item results and errors come back in
// order and match the single-query answers.
func TestRouterBatch(t *testing.T) {
	d := buildDeployment(t, 5, 2)
	co := d.pairs(false, 1)
	cross := d.pairs(true, 1)
	if len(co) == 0 || len(cross) == 0 {
		t.Fatal("degenerate split")
	}
	queries := []api.RankQuery{
		{Src: co[0][0], Dst: co[0][1], K: 3},
		{Src: cross[0][0], Dst: cross[0][1], K: 3},
		{Src: -1, Dst: 1},
	}
	body, err := json.Marshal(api.RankRequest{Queries: queries})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(d.router.URL+"/v2/rank", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch HTTP %d", resp.StatusCode)
	}
	var batch api.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 3 || batch.Errors != 1 {
		t.Fatalf("batch shape: %d results, %d errors", len(batch.Results), batch.Errors)
	}
	for i := 0; i < 2; i++ {
		item := batch.Results[i]
		if item.Index != i || item.Error != nil || item.Response == nil {
			t.Fatalf("item %d: %+v", i, item)
		}
		single, apiErr, _ := postRank(t, d.router.URL, queries[i])
		if apiErr != nil {
			t.Fatal(apiErr)
		}
		if !reflect.DeepEqual(item.Response.Paths, single.Paths) {
			t.Fatalf("item %d diverges from its single-query answer", i)
		}
	}
	if bad := batch.Results[2]; bad.Error == nil || bad.Error.Code != api.CodeInvalid {
		t.Fatalf("invalid item: %+v", bad)
	}
}

// TestRouterShardDown kills one shard worker and checks the failure mode:
// queries needing it fail fast with the typed shard_unavailable code and
// a Retry-After, queries confined to live shards keep working, and the
// router's /healthz flips to degraded with the dead shard called out.
func TestRouterShardDown(t *testing.T) {
	d := buildDeployment(t, 5, 2)
	cross := d.pairs(true, 1)
	co := d.pairs(false, 8)
	if len(cross) == 0 || len(co) == 0 {
		t.Fatal("degenerate split")
	}
	d.shards[1].Close()

	_, apiErr, resp := postRank(t, d.router.URL, api.RankQuery{Src: cross[0][0], Dst: cross[0][1], K: 3})
	if apiErr == nil {
		t.Fatal("cross-shard query succeeded with a shard down")
	}
	if apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != api.CodeShardUnavailable {
		t.Fatalf("want typed 503 %s, got %d %s: %s", api.CodeShardUnavailable, apiErr.Status, apiErr.Code, apiErr.Message)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shard_unavailable response carries no Retry-After")
	}

	// Traffic that never touches the dead shard still flows.
	served := 0
	for _, p := range co {
		if d.sm.Owner[p[0]] != 0 {
			continue
		}
		res, apiErr, _ := postRank(t, d.router.URL, api.RankQuery{Src: p[0], Dst: p[1], K: 3})
		if apiErr != nil {
			t.Fatalf("shard-0 query %d->%d failed: %v", p[0], p[1], apiErr)
		}
		_ = res
		served++
	}
	if served == 0 {
		t.Fatal("no shard-0 co-resident pairs exercised")
	}

	hresp, err := http.Get(d.router.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health struct {
		Status string `json:"status"`
		Parts  int    `json:"parts"`
		Shards []struct {
			Shard   int    `json:"shard"`
			Healthy bool   `json:"healthy"`
			Error   string `json:"error"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || health.Parts != 2 {
		t.Fatalf("health %+v, want degraded over 2 parts", health)
	}
	for _, sh := range health.Shards {
		switch sh.Shard {
		case 0:
			if !sh.Healthy {
				t.Fatalf("live shard reported unhealthy: %+v", sh)
			}
		case 1:
			if sh.Healthy || sh.Error == "" {
				t.Fatalf("dead shard reported healthy: %+v", sh)
			}
		}
	}
}

// TestOneRuleSetEverywhere runs one table of wire queries through every
// surface that answers them — the rule functions themselves
// (pathrank.RequestFromQuery + Resolve), the in-process Ranker, a
// single-process server, and the router over two shards — and requires
// the same verdict from all four: identical code, status and message for
// a rejected query, identical resolved regime for an accepted one.
func TestOneRuleSetEverywhere(t *testing.T) {
	d := buildDeployment(t, 5, 2)
	n := d.sm.NumVertices
	def := d.art.Candidates
	ranker := d.art.NewRanker()
	// Cases rotate over three pairs per route kind: stats come only from
	// the request that computed, and "explicit defaults", whose rankings
	// are the bare query's, would otherwise be answered from the cache
	// entry "bare" just filled.
	co, cross := d.pairs(false, 3), d.pairs(true, 3)
	if len(co) < 3 || len(cross) < 3 {
		t.Fatal("degenerate split")
	}

	type regime struct {
		Strategy, Weight string
		K, MaxProbe      int
		Threshold        float64
	}
	of := func(st *api.RankStats) regime {
		if st == nil {
			t.Fatal("explain response without stats")
		}
		return regime{st.Strategy, st.Weight, st.K, st.MaxProbe, st.Threshold}
	}
	bare := regime{"D-TkDI", "length", def.K, def.MaxProbe, def.Threshold}
	with := func(edit func(*regime)) *regime { r := bare; edit(&r); return &r }

	for i, tc := range []struct {
		name string
		q    api.RankQuery
		want *regime // nil: rejected as invalid_request
	}{
		{"bare", api.RankQuery{}, &bare},
		{"explicit defaults", api.RankQuery{K: def.K, Strategy: "dtkdi", Threshold: def.Threshold,
			MaxProbe: def.MaxProbe, Weight: "length"}, &bare},
		{"k scales the default probe budget", api.RankQuery{K: 6},
			with(func(r *regime) { r.K, r.MaxProbe = 6, def.MaxProbe*6/def.K })},
		{"explicit max_probe pins it", api.RankQuery{K: 6, MaxProbe: def.MaxProbe},
			with(func(r *regime) { r.K = 6 })},
		{"tkdi + threshold", api.RankQuery{Strategy: "tkdi", Threshold: 0.5},
			with(func(r *regime) { r.Strategy, r.Threshold = "TkDI", 0.5 })},
		{"time metric", api.RankQuery{Weight: "time"},
			with(func(r *regime) { r.Weight = "time" })},

		{"src out of range", api.RankQuery{Src: int64(n)}, nil},
		{"negative dst", api.RankQuery{Dst: -3}, nil},
		{"negative k", api.RankQuery{K: -1}, nil},
		{"k over cap", api.RankQuery{K: 33}, nil},
		{"negative threshold", api.RankQuery{Threshold: -0.1}, nil},
		{"threshold over 1", api.RankQuery{Threshold: 1.5}, nil},
		{"negative max_probe", api.RankQuery{MaxProbe: -1}, nil},
		{"unknown strategy", api.RankQuery{Strategy: "nope"}, nil},
		{"unknown weight", api.RankQuery{Weight: "cost"}, nil},
	} {
		for _, pair := range [][2]int64{co[i%3], cross[i%3]} {
			q := tc.q
			q.Explain = true
			crossShard := pair == cross[i%3]
			// A case that sets an endpoint itself is testing that endpoint.
			if q.Src == 0 && q.Dst == 0 {
				q.Src, q.Dst = pair[0], pair[1]
			} else if crossShard {
				continue
			}
			name := fmt.Sprintf("%s (%d->%d)", tc.name, q.Src, q.Dst)

			// Surface 1: the rule functions. Surface 2: the Ranker behind them.
			var fnRegime pathrank.Regime
			var rankStats pathrank.RankStats
			req, fnErr := pathrank.RequestFromQuery(q, n, 32)
			rankErr := fnErr
			if fnErr == nil {
				fnRegime, fnErr = pathrank.Resolve(req, def)
				var resp pathrank.RankResponse
				resp, rankErr = ranker.Rank(context.Background(), req)
				rankStats = resp.Stats
			}
			// Surfaces 3 and 4: a single server and the router.
			refRes, refErr, _ := postRank(t, d.reference.URL, q)
			rtRes, rtErr, _ := postRank(t, d.router.URL, q)

			if tc.want == nil {
				if fnErr == nil || rankErr == nil || refErr == nil || rtErr == nil {
					t.Fatalf("%s: accepted somewhere: fn=%v ranker=%v server=%v router=%v", name, fnErr, rankErr, refErr, rtErr)
				}
				want := pathrank.APIError(fnErr)
				if want.Code != api.CodeInvalid || want.Status != http.StatusBadRequest {
					t.Fatalf("%s: rule functions answer %d %s, want 400 %s", name, want.Status, want.Code, api.CodeInvalid)
				}
				for surface, got := range map[string]*api.Error{
					"ranker": pathrank.APIError(rankErr), "server": refErr, "router": rtErr,
				} {
					if *got != *want {
						t.Fatalf("%s: %s answers %+v, rule functions answer %+v", name, surface, *got, *want)
					}
				}
				continue
			}
			if fnErr != nil || rankErr != nil || refErr != nil || rtErr != nil {
				t.Fatalf("%s: rejected somewhere: fn=%v ranker=%v server=%v router=%v", name, fnErr, rankErr, refErr, rtErr)
			}
			for surface, got := range map[string]regime{
				"rule functions": of(pathrank.RankStats{Regime: fnRegime}.Wire()),
				"ranker":         of(rankStats.Wire()),
				"server":         of(refRes.Stats),
				"router":         of(rtRes.Stats),
			} {
				if got != *tc.want {
					t.Fatalf("%s: %s resolved %+v, want %+v", name, surface, got, *tc.want)
				}
			}
		}
	}

	// The wire query has no engine field: both HTTP surfaces refuse one,
	// co-resident or cross-shard, as an unknown field of the body.
	for _, pair := range [][2]int64{co[0], cross[0]} {
		body := fmt.Sprintf(`{"src":%d,"dst":%d,"engine":"ch"}`, pair[0], pair[1])
		var answers []api.Error
		for _, url := range []string{d.reference.URL, d.router.URL} {
			resp, err := http.Post(url+"/v2/rank", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var env api.ErrorEnvelope
			err = json.NewDecoder(resp.Body).Decode(&env)
			resp.Body.Close()
			if err != nil || env.Error == nil || resp.StatusCode != http.StatusBadRequest || env.Error.Code != api.CodeInvalid ||
				!strings.Contains(env.Error.Message, `unknown field "engine"`) {
				t.Fatalf("%s %s: HTTP %d, error %+v (%v); want 400 invalid_request unknown field", url, body, resp.StatusCode, env.Error, err)
			}
			answers = append(answers, *env.Error)
		}
		if answers[0] != answers[1] {
			t.Fatalf("%s: server answers %+v, router %+v", body, answers[0], answers[1])
		}
	}
}

// TestRouterRejectsMalformedShardAnswers: a shard answer that decodes but
// breaks the bundle's contract — out-of-range or foreign IDs, costs that
// are no costs, records out of order, another generation — fails the
// query with the typed shard_unavailable error before anything is fused or
// scored. Each case rewrites the well-formed frames real workers send.
func TestRouterRejectsMalformedShardAnswers(t *testing.T) {
	d := buildDeployment(t, 5, 2)
	cross := d.pairs(true, 1)
	if len(cross) == 0 {
		t.Fatal("no cross-shard pairs")
	}
	nv, ne := roadnet.VertexID(d.sm.NumVertices), roadnet.EdgeID(d.sm.NumEdges)
	foreign := func(shard int) roadnet.VertexID {
		for v, s := range d.sm.Owner {
			if int(s) != shard {
				return roadnet.VertexID(v)
			}
		}
		t.Fatal("one shard owns everything")
		return 0
	}
	// corridor rewrites every corridor answer through edit.
	corridor := func(edit func(shard int, fp *[32]byte, vs []roadnet.Vertex, es []roadnet.Edge) ([]roadnet.Vertex, []roadnet.Edge)) func(int, string, []byte) []byte {
		return func(shard int, path string, body []byte) []byte {
			if path != "/shard/corridor" {
				return body
			}
			a, err := pathrank.DecodeCorridorAnswer(body)
			if err != nil {
				t.Errorf("worker sent an unreadable corridor: %v", err)
				return body
			}
			vs := make([]roadnet.Vertex, a.NumVertices())
			for i := range vs {
				vs[i] = a.Vertex(i)
			}
			es := make([]roadnet.Edge, a.NumEdges())
			for i := range es {
				es[i] = a.Edge(i)
			}
			if len(vs) < 2 || len(es) < 1 {
				t.Errorf("shard %d corridor too small to tamper with: %d vertices, %d edges", shard, len(vs), len(es))
				return body
			}
			fp := a.Fingerprint
			vs, es = edit(shard, &fp, vs, es)
			return pathrank.EncodeCorridorAnswer(fp, vs, es)
		}
	}
	boundary := func(edit func(a *pathrank.BoundaryAnswer)) func(int, string, []byte) []byte {
		return func(_ int, path string, body []byte) []byte {
			if path != "/shard/boundary" {
				return body
			}
			a, err := pathrank.DecodeBoundaryAnswer(body)
			if err != nil {
				t.Errorf("worker sent an unreadable boundary answer: %v", err)
				return body
			}
			edit(&a)
			return pathrank.EncodeBoundaryAnswer(a)
		}
	}

	for _, tc := range []struct {
		name, want string
		tamper     func(int, string, []byte) []byte
	}{
		{"vertex out of range", "not a vertex this shard owns",
			corridor(func(_ int, _ *[32]byte, vs []roadnet.Vertex, es []roadnet.Edge) ([]roadnet.Vertex, []roadnet.Edge) {
				vs[len(vs)-1].ID = nv
				return vs, es
			})},
		{"vertex owned by another shard", "not a vertex this shard owns",
			corridor(func(shard int, _ *[32]byte, vs []roadnet.Vertex, es []roadnet.Edge) ([]roadnet.Vertex, []roadnet.Edge) {
				return append(vs, roadnet.Vertex{ID: foreign(shard)}), es
			})},
		{"edge out of range", "out of range",
			corridor(func(_ int, _ *[32]byte, vs []roadnet.Vertex, es []roadnet.Edge) ([]roadnet.Vertex, []roadnet.Edge) {
				es[len(es)-1].ID = ne
				return vs, es
			})},
		{"negative edge ID", "out of range",
			corridor(func(_ int, _ *[32]byte, vs []roadnet.Vertex, es []roadnet.Edge) ([]roadnet.Vertex, []roadnet.Edge) {
				es[0].ID = -1
				return vs, es
			})},
		{"edge into another shard", "not two vertices this shard owns",
			corridor(func(shard int, _ *[32]byte, vs []roadnet.Vertex, es []roadnet.Edge) ([]roadnet.Vertex, []roadnet.Edge) {
				es[0].To = foreign(shard)
				return vs, es
			})},
		{"NaN length", "not finite non-negative costs",
			corridor(func(_ int, _ *[32]byte, vs []roadnet.Vertex, es []roadnet.Edge) ([]roadnet.Vertex, []roadnet.Edge) {
				es[0].Length = math.NaN()
				return vs, es
			})},
		{"infinite time", "not finite non-negative costs",
			corridor(func(_ int, _ *[32]byte, vs []roadnet.Vertex, es []roadnet.Edge) ([]roadnet.Vertex, []roadnet.Edge) {
				es[0].Time = math.Inf(1)
				return vs, es
			})},
		{"negative length", "not finite non-negative costs",
			corridor(func(_ int, _ *[32]byte, vs []roadnet.Vertex, es []roadnet.Edge) ([]roadnet.Vertex, []roadnet.Edge) {
				es[0].Length = -1
				return vs, es
			})},
		{"vertices out of order", "out of ascending order",
			corridor(func(_ int, _ *[32]byte, vs []roadnet.Vertex, es []roadnet.Edge) ([]roadnet.Vertex, []roadnet.Edge) {
				vs[0], vs[1] = vs[1], vs[0]
				return vs, es
			})},
		{"edge sent twice", "out of ascending order or sent twice",
			corridor(func(_ int, _ *[32]byte, vs []roadnet.Vertex, es []roadnet.Edge) ([]roadnet.Vertex, []roadnet.Edge) {
				return vs, append(es, es[len(es)-1])
			})},
		{"corridor of another generation", "serves fingerprint",
			corridor(func(_ int, fp *[32]byte, vs []roadnet.Vertex, es []roadnet.Edge) ([]roadnet.Vertex, []roadnet.Edge) {
				fp[0] ^= 1
				return vs, es
			})},
		{"truncated corridor frame", "corridor answer",
			func(_ int, path string, body []byte) []byte {
				if path == "/shard/corridor" {
					return body[:len(body)-1]
				}
				return body
			}},
		{"NaN boundary distance", "not a cost",
			boundary(func(a *pathrank.BoundaryAnswer) { a.Dist[0] = math.NaN() })},
		{"negative boundary distance", "not a cost",
			boundary(func(a *pathrank.BoundaryAnswer) { a.Dist[len(a.Dist)-1] = -1 })},
		{"short boundary vector", "entries, shard map says",
			boundary(func(a *pathrank.BoundaryAnswer) { a.Dist = a.Dist[1:] })},
		{"boundary answer of another generation", "serves fingerprint",
			boundary(func(a *pathrank.BoundaryAnswer) { a.Fingerprint[5] ^= 1 })},
	} {
		d.tamper.Store(&tc.tamper)
		_, apiErr, resp := postRank(t, d.router.URL, api.RankQuery{Src: cross[0][0], Dst: cross[0][1], K: 3})
		d.tamper.Store(nil)
		if apiErr == nil {
			t.Fatalf("%s: the router answered from a malformed shard answer", tc.name)
		}
		if apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != api.CodeShardUnavailable ||
			!strings.Contains(apiErr.Message, tc.want) || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s: got %d %s %q, want 503 %s mentioning %q", tc.name, apiErr.Status, apiErr.Code, apiErr.Message, api.CodeShardUnavailable, tc.want)
		}
	}
	// Untampered, the same query is answered: each case failed on its defect.
	if _, apiErr, _ := postRank(t, d.router.URL, api.RankQuery{Src: cross[0][0], Dst: cross[0][1], K: 3}); apiErr != nil {
		t.Fatalf("untampered query: %v", apiErr)
	}
}

// benchDeployment builds one deployment for the routing benchmarks and
// returns a representative co-resident and cross-shard query.
func benchDeployment(b *testing.B) (*deployment, api.RankQuery, api.RankQuery) {
	d := buildDeployment(b, 5, 2)
	co := d.pairs(false, 1)
	cross := d.pairs(true, 1)
	if len(co) == 0 || len(cross) == 0 {
		b.Fatal("degenerate split")
	}
	return d,
		api.RankQuery{Src: co[0][0], Dst: co[0][1], K: 3},
		api.RankQuery{Src: cross[0][0], Dst: cross[0][1], K: 3}
}

func benchRank(b *testing.B, url string, q api.RankQuery) {
	b.Helper()
	body, err := json.Marshal(api.RankRequest{RankQuery: q})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(url+"/v2/rank", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("HTTP %d", resp.StatusCode)
		}
	}
}

func BenchmarkRouterRankCoShard(b *testing.B) {
	d, co, _ := benchDeployment(b)
	benchRank(b, d.router.URL, co)
}

// BenchmarkCrossShardQuery answers one fixed cross-shard pair through the
// router, with its two shard workers in process on loopback. allocs/op
// counts the router's and the workers' allocations together, and
// corridor-B/call is the size of each corridor answer: both are properties
// of the code, the same on any machine.
func BenchmarkCrossShardQuery(b *testing.B) {
	d, _, cross := benchDeployment(b)
	benchRank(b, d.router.URL, cross)
	if calls := d.corridorCalls.Load(); calls > 0 {
		b.ReportMetric(float64(d.corridorBytes.Load())/float64(calls), "corridor-B/call")
	}
}

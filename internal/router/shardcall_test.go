package router

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathrank/internal/api"
)

// This file tests the router's shard calls: the hedge, the retry, the
// error mapping, which goroutines the calls run on, and the connections
// they keep.

// counterValue scrapes rt's metrics and returns the value of the counter
// series name{labels}, 0 while the series does not exist.
func counterValue(t *testing.T, rt *Router, name, labels string) float64 {
	t.Helper()
	var b bytes.Buffer
	if err := rt.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	prefix := name + "{" + labels + "} "
	sc := bufio.NewScanner(&b)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), prefix); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", sc.Text(), err)
			}
			return f
		}
	}
	return 0
}

// coPair returns a co-resident pair and its owning shard.
func (d *deployment) coPair(t *testing.T) ([2]int64, int) {
	t.Helper()
	co := d.pairs(false, 1)
	if len(co) == 0 {
		t.Fatal("no co-resident pairs")
	}
	return co[0], int(d.sm.Owner[co[0][0]])
}

// interceptRank makes f handle every /v2/rank call shard worker shard
// receives, with the call's 1-based number on that worker, until the test
// ends.
func (d *deployment) interceptRank(t *testing.T, shard int, f func(n int64, w http.ResponseWriter, r *http.Request) bool) *atomic.Int64 {
	var calls atomic.Int64
	h := func(s int, w http.ResponseWriter, r *http.Request) bool {
		if s != shard || r.URL.Path != "/v2/rank" {
			return false
		}
		return f(calls.Add(1), w, r)
	}
	d.intercept.Store(&h)
	t.Cleanup(func() { d.intercept.Store(nil) })
	return &calls
}

// dropConnection ends a call at the transport level: the worker closes the
// connection without answering.
func dropConnection(t *testing.T, w http.ResponseWriter) {
	conn, _, err := http.NewResponseController(w).Hijack()
	if err != nil {
		t.Errorf("hijack: %v", err)
		return
	}
	conn.Close()
}

// proxyStat returns the proxy entry of a co-resident explain answer.
func proxyStat(t *testing.T, res *api.RankResult) api.ShardStat {
	t.Helper()
	if res.Stats == nil || len(res.Stats.Shards) == 0 {
		t.Fatalf("explain answer without shard stats: %+v", res.Stats)
	}
	st := res.Stats.Shards[len(res.Stats.Shards)-1]
	if st.Role != "proxy" {
		t.Fatalf("last shard stat %+v, want the proxy call", st)
	}
	return st
}

// TestHedgeAnswersForStalledShard: a shard that stalls its first call past
// HedgeAfter is asked again; the duplicate's answer is the query's, explain
// and the hedge counter record the hedge, and the stalled call is canceled.
func TestHedgeAnswersForStalledShard(t *testing.T) {
	d := buildDeployment(t, 5, 2)
	pair, shard := d.coPair(t)
	rt, srv := d.newRouter(t, Config{HedgeAfter: 10 * time.Millisecond})
	canceled := make(chan struct{}, 1)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	d.interceptRank(t, shard, func(n int64, w http.ResponseWriter, r *http.Request) bool {
		if n > 1 {
			return false
		}
		// Reading the body to its end lets the server notice the client
		// hanging up.
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
			canceled <- struct{}{}
		case <-release:
		}
		return true
	})
	label := fmt.Sprintf("shard=%q", fmt.Sprint(shard))
	before := counterValue(t, rt, "pathrank_router_hedges_total", label)

	res, apiErr, _ := postRank(t, srv.URL, api.RankQuery{Src: pair[0], Dst: pair[1], K: 3, Explain: true})
	if apiErr != nil {
		t.Fatalf("hedged query failed: %v", apiErr)
	}
	want, wantErr, _ := postRank(t, d.shards[shard].URL, api.RankQuery{Src: pair[0], Dst: pair[1], K: 3})
	if wantErr != nil || len(res.Paths) == 0 || fmt.Sprint(res.Paths) != fmt.Sprint(want.Paths) {
		t.Fatalf("hedged answer %+v, the shard's own %+v (%v)", res.Paths, want, wantErr)
	}
	if st := proxyStat(t, res); st.Calls != 2 || !st.Hedged {
		t.Fatalf("proxy stat %+v, want calls 2, hedged", st)
	}
	if after := counterValue(t, rt, "pathrank_router_hedges_total", label); after != before+1 {
		t.Fatalf("hedges_total{%s} went %v -> %v, want one more", label, before, after)
	}
	select {
	case <-canceled:
	case <-time.After(10 * time.Second):
		t.Fatal("the stalled call's request context was never canceled")
	}
}

// TestRetryAfterDroppedConnection: a call whose first attempt dies at the
// transport level is retried once, at once, with the hedge armed or off.
func TestRetryAfterDroppedConnection(t *testing.T) {
	d := buildDeployment(t, 5, 2)
	pair, shard := d.coPair(t)
	for _, hedge := range []time.Duration{-1, time.Minute} {
		_, srv := d.newRouter(t, Config{HedgeAfter: hedge})
		calls := d.interceptRank(t, shard, func(n int64, w http.ResponseWriter, _ *http.Request) bool {
			if n > 1 {
				return false
			}
			dropConnection(t, w)
			return true
		})
		res, apiErr, _ := postRank(t, srv.URL, api.RankQuery{Src: pair[0], Dst: pair[1], K: 3, Explain: true})
		if apiErr != nil {
			t.Fatalf("hedge %v: retried query failed: %v", hedge, apiErr)
		}
		if st := proxyStat(t, res); st.Calls != 2 || st.Hedged {
			t.Fatalf("hedge %v: proxy stat %+v, want calls 2, not hedged", hedge, st)
		}
		if n := calls.Load(); n != 2 {
			t.Fatalf("hedge %v: shard saw %d calls, want 2", hedge, n)
		}
	}
}

// TestRetryExhaustedIsShardUnavailable: when both attempts die at the
// transport level the query fails with a typed, retryable 503 after
// exactly two attempts.
func TestRetryExhaustedIsShardUnavailable(t *testing.T) {
	d := buildDeployment(t, 5, 2)
	pair, shard := d.coPair(t)
	for _, hedge := range []time.Duration{-1, time.Minute} {
		rt, srv := d.newRouter(t, Config{HedgeAfter: hedge})
		calls := d.interceptRank(t, shard, func(_ int64, w http.ResponseWriter, _ *http.Request) bool {
			dropConnection(t, w)
			return true
		})
		_, apiErr, resp := postRank(t, srv.URL, api.RankQuery{Src: pair[0], Dst: pair[1], K: 3})
		if apiErr == nil || apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != api.CodeShardUnavailable {
			t.Fatalf("hedge %v: got %+v, want 503 %s", hedge, apiErr, api.CodeShardUnavailable)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("hedge %v: shard_unavailable without Retry-After", hedge)
		}
		if n := calls.Load(); n != 2 {
			t.Fatalf("hedge %v: shard saw %d calls, want 2", hedge, n)
		}
		label := fmt.Sprintf("shard=%q", fmt.Sprint(shard))
		if n := counterValue(t, rt, "pathrank_router_shard_errors_total", label); n != 1 {
			t.Fatalf("hedge %v: shard_errors_total{%s} = %v, want 1", hedge, label, n)
		}
	}
}

// TestHedgedCallDeadline: a request deadline that expires while its shard
// call is unanswered fails the query with the deadline code — with hedging
// off, armed, and fired.
func TestHedgedCallDeadline(t *testing.T) {
	d := buildDeployment(t, 5, 2)
	pair, shard := d.coPair(t)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	for _, hedge := range []time.Duration{-1, time.Minute, 10 * time.Millisecond} {
		_, srv := d.newRouter(t, Config{HedgeAfter: hedge})
		d.interceptRank(t, shard, func(_ int64, _ http.ResponseWriter, r *http.Request) bool {
			select {
			case <-r.Context().Done():
			case <-release:
			}
			return true
		})
		_, apiErr, _ := postRank(t, srv.URL, api.RankQuery{Src: pair[0], Dst: pair[1], K: 3, TimeoutMs: 50})
		if apiErr == nil || apiErr.Code != api.CodeDeadline || apiErr.Status != api.HTTPStatus(api.CodeDeadline) {
			t.Fatalf("hedge %v: got %+v, want %d %s", hedge, apiErr, api.HTTPStatus(api.CodeDeadline), api.CodeDeadline)
		}
	}
}

// goroutineID returns the calling goroutine's ID, from its stack header.
func goroutineID() int64 {
	var buf [64]byte
	s := strings.TrimPrefix(string(buf[:runtime.Stack(buf[:], false)]), "goroutine ")
	id, _ := strconv.ParseInt(s[:strings.IndexByte(s, ' ')], 10, 64)
	return id
}

// callRecorder is a transport that notes which goroutine sent each request.
type callRecorder struct {
	next http.RoundTripper
	mu   sync.Mutex
	legs []recordedLeg
}

type recordedLeg struct {
	path string
	g    int64
}

func (c *callRecorder) RoundTrip(r *http.Request) (*http.Response, error) {
	c.mu.Lock()
	c.legs = append(c.legs, recordedLeg{r.URL.Path, goroutineID()})
	c.mu.Unlock()
	return c.next.RoundTrip(r)
}

func (c *callRecorder) take() []recordedLeg {
	c.mu.Lock()
	defer c.mu.Unlock()
	legs := c.legs
	c.legs = nil
	return legs
}

// TestShardCallsRunOnTheCaller: with hedging off or armed, an unhedged
// shard call runs on its caller's goroutine, and a fan-out of n legs runs
// one of them there and starts a goroutine for each of the other n−1.
func TestShardCallsRunOnTheCaller(t *testing.T) {
	d := buildDeployment(t, 5, 2)
	co := d.pairs(false, 1)
	cross := d.pairs(true, 1)
	if len(co) == 0 || len(cross) == 0 {
		t.Fatal("degenerate split")
	}
	for _, hedge := range []time.Duration{-1, time.Minute} {
		rt, _ := d.newRouter(t, Config{HedgeAfter: hedge})
		rec := &callRecorder{next: rt.client.Transport}
		rt.client.Transport = rec
		caller := goroutineID()

		if _, _, apiErr := rt.rankSingle(context.Background(), api.RankQuery{Src: co[0][0], Dst: co[0][1], K: 3}, true); apiErr != nil {
			t.Fatal(apiErr)
		}
		if legs := rec.take(); len(legs) != 1 || legs[0].g != caller {
			t.Fatalf("hedge %v: co-resident query sent %+v, want one call from goroutine %d", hedge, legs, caller)
		}

		if _, _, apiErr := rt.rankSingle(context.Background(), api.RankQuery{Src: cross[0][0], Dst: cross[0][1], K: 3}, true); apiErr != nil {
			t.Fatal(apiErr)
		}
		byPath := map[string][]int64{}
		for _, l := range rec.take() {
			byPath[l.path] = append(byPath[l.path], l.g)
		}
		// Both parts take part in every corridor round of a two-part split,
		// so each fan-out has two legs.
		for _, path := range []string{"/shard/boundary", "/shard/corridor"} {
			gs := byPath[path]
			onCaller, others := 0, map[int64]bool{}
			for _, g := range gs {
				if g == caller {
					onCaller++
				} else {
					others[g] = true
				}
			}
			if len(gs) == 0 || len(gs)%2 != 0 || onCaller != len(gs)/2 || len(others) != len(gs)/2 {
				t.Fatalf("hedge %v: %s legs ran on goroutines %v; want half on the caller %d, the rest one goroutine each",
					hedge, path, gs, caller)
			}
		}
		if n := len(byPath["/shard/boundary"]); n != 2 {
			t.Fatalf("hedge %v: %d boundary calls, want 2", hedge, n)
		}
	}
}

// TestRouterKeepsShardConnections: the connections a burst of concurrent
// queries opens to a shard stay open for the next burst. Every call of a
// burst waits at the worker until all have arrived, so a burst needs as
// many connections as it has queries.
func TestRouterKeepsShardConnections(t *testing.T) {
	d := buildDeployment(t, 5, 2)
	pair, shard := d.coPair(t)
	const burst = 8
	bound := int64(d.rt.cfg.MaxBatch * runtime.GOMAXPROCS(0))
	round := func() int64 {
		before := d.newConns[shard].Load()
		var arrived atomic.Int64
		all := make(chan struct{})
		d.interceptRank(t, shard, func(_ int64, _ http.ResponseWriter, _ *http.Request) bool {
			if arrived.Add(1) == burst {
				close(all)
			}
			select {
			case <-all:
			case <-time.After(10 * time.Second):
				t.Error("the burst's calls never all reached the worker")
			}
			return false
		})
		var wg sync.WaitGroup
		for range burst {
			wg.Add(1)
			go func() {
				defer wg.Done()
				body := fmt.Sprintf(`{"src":%d,"dst":%d}`, pair[0], pair[1])
				resp, err := http.Post(d.router.URL+"/v2/rank", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("HTTP %d", resp.StatusCode)
				}
			}()
		}
		wg.Wait()
		return d.newConns[shard].Load() - before
	}
	if opened := round(); opened < burst || opened > bound {
		t.Fatalf("the first burst of %d opened %d connections, want %d to %d", burst, opened, burst, bound)
	}
	if opened := round(); opened != 0 {
		t.Fatalf("an identical second burst opened %d more connections, want none", opened)
	}
}

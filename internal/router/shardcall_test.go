package router

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
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

// connRecorder wraps the connections of a router's shard pools and notes,
// for each request written, the goroutine that wrote it and the goroutines
// of each Read of its reply.
type connRecorder struct {
	mu   sync.Mutex
	legs []*recordedLeg
}

type recordedLeg struct {
	path  string
	write int64
	reads []int64
}

// watch makes every connection rt's pools dial from now on a recorded one.
func (c *connRecorder) watch(rt *Router) {
	for _, p := range rt.shards {
		next := p.dial
		p.dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := next(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return &recordingConn{Conn: conn, rec: c}, nil
		}
	}
}

func (c *connRecorder) take() []*recordedLeg {
	c.mu.Lock()
	defer c.mu.Unlock()
	legs := c.legs
	c.legs = nil
	return legs
}

type recordingConn struct {
	net.Conn
	rec *connRecorder
	leg *recordedLeg // the request last written
}

// Write records a request from its request line, "METHOD path HTTP/1.1":
// a request written in more than one Write shows as a leg per Write.
func (c *recordingConn) Write(p []byte) (int, error) {
	line, _, _ := bytes.Cut(p, []byte("\r\n"))
	fields := strings.Fields(string(line))
	leg := &recordedLeg{write: goroutineID()}
	if len(fields) == 3 {
		leg.path = fields[1]
	}
	c.rec.mu.Lock()
	c.rec.legs = append(c.rec.legs, leg)
	c.leg = leg
	c.rec.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *recordingConn) Read(p []byte) (int, error) {
	g := goroutineID()
	c.rec.mu.Lock()
	if c.leg == nil {
		c.leg = &recordedLeg{path: "(read before any write)", write: -1}
		c.rec.legs = append(c.rec.legs, c.leg)
	}
	c.leg.reads = append(c.leg.reads, g)
	c.rec.mu.Unlock()
	return c.Conn.Read(p)
}

// TestShardCallsRunOnTheCaller: with hedging off or armed, an unhedged
// shard call writes its request in one Write and reads its reply on its
// caller's goroutine, and a fan-out of n legs runs one of them there and
// starts a goroutine for each of the other n−1, which writes and reads
// that leg's call.
func TestShardCallsRunOnTheCaller(t *testing.T) {
	d := buildDeployment(t, 5, 2)
	co := d.pairs(false, 1)
	cross := d.pairs(true, 1)
	if len(co) == 0 || len(cross) == 0 {
		t.Fatal("degenerate split")
	}
	for _, hedge := range []time.Duration{-1, time.Minute} {
		rt, _ := d.newRouter(t, Config{HedgeAfter: hedge})
		rec := &connRecorder{}
		rec.watch(rt)
		caller := goroutineID()
		// Each leg's reply is read where its request was written.
		check := func(legs []*recordedLeg) {
			t.Helper()
			for _, l := range legs {
				if len(l.reads) == 0 {
					t.Fatalf("hedge %v: %s call read no reply", hedge, l.path)
				}
				for _, g := range l.reads {
					if g != l.write {
						t.Fatalf("hedge %v: %s call written on goroutine %d read on %v", hedge, l.path, l.write, l.reads)
					}
				}
			}
		}

		if _, _, apiErr := rt.rankSingle(context.Background(), api.RankQuery{Src: co[0][0], Dst: co[0][1], K: 3}, true); apiErr != nil {
			t.Fatal(apiErr)
		}
		legs := rec.take()
		if len(legs) != 1 || legs[0].path != "/v2/rank" || legs[0].write != caller {
			t.Fatalf("hedge %v: co-resident query wrote %+v, want one /v2/rank request from goroutine %d", hedge, legs, caller)
		}
		check(legs)

		if _, _, apiErr := rt.rankSingle(context.Background(), api.RankQuery{Src: cross[0][0], Dst: cross[0][1], K: 3}, true); apiErr != nil {
			t.Fatal(apiErr)
		}
		legs = rec.take()
		check(legs)
		byPath := map[string][]int64{}
		for _, l := range legs {
			byPath[l.path] = append(byPath[l.path], l.write)
		}
		if len(byPath) != 1 {
			t.Fatalf("hedge %v: cross-shard query wrote requests for %v, want corridor calls only", hedge, byPath)
		}
		// Both parts take part in every corridor round of a two-part split,
		// so each fan-out has two legs.
		gs := byPath["/shard/corridor"]
		onCaller, others := 0, map[int64]bool{}
		for _, g := range gs {
			if g == caller {
				onCaller++
			} else {
				others[g] = true
			}
		}
		if len(gs) == 0 || len(gs)%2 != 0 || onCaller != len(gs)/2 || len(others) != len(gs)/2 {
			t.Fatalf("hedge %v: corridor legs ran on goroutines %v; want half on the caller %d, the rest one goroutine each",
				hedge, gs, caller)
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

// TestShardConnURLs: New refuses a shard URL its client cannot speak to —
// anything but http://host[:port][/path] — naming the shard, and parses an
// accepted one into the address it dials, the Host it sends and the path
// prefix it keeps.
func TestShardConnURLs(t *testing.T) {
	d := buildDeployment(t, 5, 2)
	good := d.shards[0].URL
	for _, raw := range []string{
		"", "localhost:8081", "127.0.0.1:8081", "https://127.0.0.1:8081", "ftp://127.0.0.1:8081",
		"http://", "http:///base", "http://user:pw@127.0.0.1:8081", "http://127.0.0.1:8081?x=1",
		"http://127.0.0.1:8081#frag", "http://[::1", "://127.0.0.1",
	} {
		_, err := New(d.sm, Config{Shards: []string{good, raw}})
		if err == nil || !strings.Contains(err.Error(), "shard 1") {
			t.Errorf("New with shard URL %q: err %v, want a refusal naming shard 1", raw, err)
		}
	}
	for _, tc := range []struct{ raw, addr, host, prefix string }{
		{"http://127.0.0.1:8081", "127.0.0.1:8081", "127.0.0.1:8081", ""},
		{"http://127.0.0.1:8081/", "127.0.0.1:8081", "127.0.0.1:8081", ""},
		{"http://worker-3/pathrank/", "worker-3:80", "worker-3", "/pathrank"},
		{"http://[::1]:9000/a/b", "[::1]:9000", "[::1]:9000", "/a/b"},
	} {
		rt, err := New(d.sm, Config{Shards: []string{good, tc.raw}})
		if err != nil {
			t.Errorf("New with shard URL %q: %v", tc.raw, err)
			continue
		}
		if p := rt.shards[1]; p.addr != tc.addr || p.host != tc.host || p.prefix != tc.prefix {
			t.Errorf("shard URL %q: dials %q, Host %q, prefix %q; want %q, %q, %q",
				tc.raw, p.addr, p.host, p.prefix, tc.addr, tc.host, tc.prefix)
		}
	}
	// A trailing slash on a live worker's URL still reaches its endpoints.
	rt, err := New(d.sm, Config{Shards: []string{good + "/", d.shards[1].URL + "/"}, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	cross := d.pairs(true, 1)
	if _, _, apiErr := rt.rankSingle(context.Background(), api.RankQuery{Src: cross[0][0], Dst: cross[0][1], K: 3}, true); apiErr != nil {
		t.Fatalf("query over slash-terminated shard URLs: %v", apiErr)
	}
}

// idleConns is the number of connections idle in shard's pool.
func idleConns(rt *Router, shard int) int {
	p := rt.shards[shard]
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// hijackReply answers a call by writing raw on the bare connection, and
// with halfClose ends the worker's side of it, so that a body cut short
// reads as cut short. It then waits, up to 10s, for the router to close the
// connection, and reports whether it did.
func hijackReply(t *testing.T, w http.ResponseWriter, raw string, halfClose bool) bool {
	conn, _, err := http.NewResponseController(w).Hijack()
	if err != nil {
		t.Errorf("hijack: %v", err)
		return false
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, raw); err != nil {
		t.Errorf("write reply: %v", err)
		return false
	}
	if halfClose {
		conn.(*net.TCPConn).CloseWrite()
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	_, err = io.Copy(io.Discard, conn) // nil once the router has closed its end
	return err == nil
}

// TestShardConnStaleIdleRedialed: a worker that closes a pooled connection
// while it is idle costs the next query nothing visible: the router dials
// afresh and sends the call again, which explain counts as one call and the
// shard error counter does not see.
func TestShardConnStaleIdleRedialed(t *testing.T) {
	d := buildDeployment(t, 5, 2)
	pair, shard := d.coPair(t)
	rt, srv := d.newRouter(t, Config{HedgeAfter: -1})
	obs := &rt.obs.shards[shard]
	q := api.RankQuery{Src: pair[0], Dst: pair[1], K: 3, Explain: true}
	if _, apiErr, _ := postRank(t, srv.URL, q); apiErr != nil {
		t.Fatal(apiErr)
	}
	if n := idleConns(rt, shard); n != 1 {
		t.Fatalf("%d idle connections after one call, want 1", n)
	}
	d.shards[shard].CloseClientConnections()
	errs, dials := obs.errors.Value(), obs.dials.Value()

	res, apiErr, _ := postRank(t, srv.URL, q)
	if apiErr != nil {
		t.Fatalf("query after the worker closed the idle connection: %v", apiErr)
	}
	if st := proxyStat(t, res); st.Calls != 1 || st.Hedged {
		t.Fatalf("proxy stat %+v, want one call", st)
	}
	if n := obs.errors.Value(); n != errs {
		t.Fatalf("shard_errors_total went %v -> %v, want unchanged", errs, n)
	}
	if n := obs.dials.Value(); n != dials+1 {
		t.Fatalf("shard_dials_total went %v -> %v, want one more", dials, n)
	}
}

// TestShardConnCloseNotPooled: a reply that says Connection: close leaves
// its connection out of the pool, so each such call dials its own.
func TestShardConnCloseNotPooled(t *testing.T) {
	d := buildDeployment(t, 5, 2)
	pair, shard := d.coPair(t)
	rt, srv := d.newRouter(t, Config{HedgeAfter: -1})
	d.interceptRank(t, shard, func(_ int64, w http.ResponseWriter, _ *http.Request) bool {
		w.Header().Set("Connection", "close")
		return false
	})
	for i := 1; i <= 2; i++ {
		res, apiErr, _ := postRank(t, srv.URL, api.RankQuery{Src: pair[0], Dst: pair[1], K: 3, Explain: true})
		if apiErr != nil {
			t.Fatal(apiErr)
		}
		if st := proxyStat(t, res); st.Calls != 1 {
			t.Fatalf("query %d: proxy stat %+v, want one call", i, st)
		}
		if n := idleConns(rt, shard); n != 0 {
			t.Fatalf("query %d: %d idle connections, want none", i, n)
		}
		if n := rt.obs.shards[shard].dials.Value(); n != float64(i) {
			t.Fatalf("query %d: %v dials, want %d", i, n, i)
		}
	}
}

// TestShardConnExcessBytesNotPooled: a reply followed by bytes no request
// asked for is answered, and its connection, out of step with the worker,
// is closed instead of pooled.
func TestShardConnExcessBytesNotPooled(t *testing.T) {
	d := buildDeployment(t, 5, 2)
	pair, shard := d.coPair(t)
	rt, _ := d.newRouter(t, Config{HedgeAfter: -1})
	const body = `{"src":0}` + "\n"
	closed := make(chan bool, 1)
	d.interceptRank(t, shard, func(_ int64, w http.ResponseWriter, _ *http.Request) bool {
		closed <- hijackReply(t, w, fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%sHTTP/1.1 200 OK\r\n", len(body), body), false)
		return true
	})
	_, relayed, apiErr := rt.rankSingle(context.Background(), api.RankQuery{Src: pair[0], Dst: pair[1], K: 3}, true)
	if apiErr != nil || string(relayed) != body {
		t.Fatalf("got %q, %v; want the worker's body %q", relayed, apiErr, body)
	}
	if !<-closed {
		t.Fatal("the router kept the connection open")
	}
	if n := idleConns(rt, shard); n != 0 {
		t.Fatalf("%d idle connections, want none", n)
	}
}

// readTap keeps a copy of everything read from the connections a router's
// pools dial.
type readTap struct {
	net.Conn
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (r readTap) Read(p []byte) (int, error) {
	n, err := r.Conn.Read(p)
	r.mu.Lock()
	r.buf.Write(p[:n])
	r.mu.Unlock()
	return n, err
}

// TestShardConnChunkedReply: a reply the worker flushes part by part
// arrives chunked and is read whole, and its connection is pooled.
func TestShardConnChunkedReply(t *testing.T) {
	d := buildDeployment(t, 5, 2)
	pair, shard := d.coPair(t)
	rt, srv := d.newRouter(t, Config{HedgeAfter: -1})
	var mu sync.Mutex
	var wire bytes.Buffer
	next := rt.shards[shard].dial
	rt.shards[shard].dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := next(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return readTap{Conn: conn, mu: &mu, buf: &wire}, nil
	}
	q := api.RankQuery{Src: pair[0], Dst: pair[1], K: 3}
	_, want := postRaw(t, d.shards[shard].URL, q)
	d.interceptRank(t, shard, func(_ int64, w http.ResponseWriter, r *http.Request) bool {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		for _, part := range [][]byte{want[:len(want)/2], want[len(want)/2:]} {
			w.Write(part)
			if err := http.NewResponseController(w).Flush(); err != nil {
				t.Error(err)
			}
		}
		return true
	})
	resp, got := postRaw(t, srv.URL, q)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("router answered %d %q, want the worker's 200 %q", resp.StatusCode, got, want)
	}
	mu.Lock()
	chunked := strings.Contains(wire.String(), "Transfer-Encoding: chunked")
	mu.Unlock()
	if !chunked {
		t.Fatal("the worker's reply was not chunked")
	}
	if n := idleConns(rt, shard); n != 1 {
		t.Fatalf("%d idle connections after the chunked reply, want 1", n)
	}
}

// TestShardFramesDeclareLength: a corridor frame larger than the worker's
// 2 KB write buffer arrives with its Content-Length, not chunked, so the
// router reads it in one presized read. The replies are read back off the
// connections the router's pools dial.
func TestShardFramesDeclareLength(t *testing.T) {
	d := buildDeployment(t, 5, 2)
	rt, _ := d.newRouter(t, Config{HedgeAfter: -1})
	var mu sync.Mutex
	var wires []*bytes.Buffer // one per connection
	for s := range rt.shards {
		next := rt.shards[s].dial
		rt.shards[s].dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := next(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			defer mu.Unlock()
			wires = append(wires, new(bytes.Buffer))
			return readTap{Conn: conn, mu: &mu, buf: wires[len(wires)-1]}, nil
		}
	}
	for _, p := range d.pairs(true, 5) {
		if _, _, apiErr := rt.rankSingle(context.Background(), api.RankQuery{Src: p[0], Dst: p[1], K: 3}, false); apiErr != nil {
			t.Fatal(apiErr)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	large := 0
	for _, wire := range wires {
		br := bufio.NewReader(bytes.NewReader(wire.Bytes()))
		for {
			if _, err := br.Peek(1); err == io.EOF {
				break
			}
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if len(body) <= 2048 {
				continue
			}
			large++
			if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
				t.Fatalf("a %d-byte reply came with Content-Length %d and Transfer-Encoding %v",
					len(body), resp.ContentLength, resp.TransferEncoding)
			}
		}
	}
	if large == 0 {
		t.Fatal("no reply over 2 KB; the test checks nothing")
	}
}

// TestShardConnShortOrOversizedBody: a reply whose body ends before its
// Content-Length, or declares more than maxShardResponse, fails its
// attempt, whose connection the router closes; the call's retry answers.
func TestShardConnShortOrOversizedBody(t *testing.T) {
	d := buildDeployment(t, 5, 2)
	pair, shard := d.coPair(t)
	for _, tc := range []struct{ name, reply string }{
		{"short", "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{\"src\":"},
		{"oversized", fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", maxShardResponse+1)},
	} {
		rt, srv := d.newRouter(t, Config{HedgeAfter: -1})
		closed := make(chan bool, 1)
		d.interceptRank(t, shard, func(n int64, w http.ResponseWriter, _ *http.Request) bool {
			if n > 1 {
				return false
			}
			// A short body ends with the worker's half of the connection:
			// the router, not the worker, must close the rest.
			closed <- hijackReply(t, w, tc.reply, tc.name == "short")
			return true
		})
		res, apiErr, _ := postRank(t, srv.URL, api.RankQuery{Src: pair[0], Dst: pair[1], K: 3, Explain: true})
		if apiErr != nil {
			t.Fatalf("%s: query failed: %v", tc.name, apiErr)
		}
		if st := proxyStat(t, res); st.Calls != 2 || st.Hedged {
			t.Fatalf("%s: proxy stat %+v, want calls 2, not hedged", tc.name, st)
		}
		if !<-closed {
			t.Fatalf("%s: the router kept the connection of the failed attempt open", tc.name)
		}
		if n := rt.obs.shards[shard].dials.Value(); n != 2 {
			t.Fatalf("%s: %v dials, want 2", tc.name, n)
		}
	}
}

// TestShardConnCanceledMidReply: a call whose context fires while its reply
// is half read fails with the deadline or cancel code, its connection is
// closed, and the next call dials a fresh one.
func TestShardConnCanceledMidReply(t *testing.T) {
	d := buildDeployment(t, 5, 2)
	pair, shard := d.coPair(t)
	for _, code := range []string{api.CodeDeadline, api.CodeCanceled} {
		rt, _ := d.newRouter(t, Config{HedgeAfter: -1})
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		if code == api.CodeCanceled {
			cancel()
			ctx, cancel = context.WithCancel(context.Background())
		}
		closed := make(chan bool, 1)
		d.interceptRank(t, shard, func(n int64, w http.ResponseWriter, _ *http.Request) bool {
			if n > 1 {
				return false
			}
			if code == api.CodeCanceled {
				time.AfterFunc(20*time.Millisecond, cancel)
			}
			closed <- hijackReply(t, w, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{\"src\":", false)
			return true
		})
		q := api.RankQuery{Src: pair[0], Dst: pair[1], K: 3}
		_, _, apiErr := rt.rankSingle(ctx, q, true)
		cancel()
		if apiErr == nil || apiErr.Code != code {
			t.Fatalf("got %+v, want code %s", apiErr, code)
		}
		if !<-closed {
			t.Fatalf("%s: the router kept the connection of the abandoned call open", code)
		}
		if n := idleConns(rt, shard); n != 0 {
			t.Fatalf("%s: %d idle connections, want none", code, n)
		}
		if _, _, apiErr := rt.rankSingle(context.Background(), q, true); apiErr != nil {
			t.Fatalf("%s: the next call failed: %v", code, apiErr)
		}
		if n := rt.obs.shards[shard].dials.Value(); n != 2 {
			t.Fatalf("%s: %v dials, want 2", code, n)
		}
	}
}

// TestShardConnReusedSequentially: 100 co-resident queries one after the
// other travel on one connection to their shard.
func TestShardConnReusedSequentially(t *testing.T) {
	d := buildDeployment(t, 5, 2)
	pair, shard := d.coPair(t)
	rt, srv := d.newRouter(t, Config{HedgeAfter: -1})
	before := d.newConns[shard].Load()
	for i := 0; i < 100; i++ {
		if _, apiErr, _ := postRank(t, srv.URL, api.RankQuery{Src: pair[0], Dst: pair[1], K: 1 + i%4}); apiErr != nil {
			t.Fatal(apiErr)
		}
	}
	if n := d.newConns[shard].Load() - before; n != 1 {
		t.Fatalf("100 sequential queries opened %d connections to the shard, want 1", n)
	}
	if n := rt.obs.shards[shard].dials.Value(); n != 1 {
		t.Fatalf("%v dials, want 1", n)
	}
}

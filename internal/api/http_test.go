package api

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestWriteErrorEnvelope(t *testing.T) {
	for _, tc := range []struct {
		code       string
		status     int
		retryAfter string
	}{
		{CodeInvalid, http.StatusBadRequest, ""},
		{CodeUnroutable, http.StatusNotFound, ""},
		{CodeDeadline, http.StatusGatewayTimeout, ""},
		{CodeCanceled, http.StatusRequestTimeout, ""},
		{CodeBacklog, http.StatusServiceUnavailable, "1"},
		{CodeShardUnavailable, http.StatusServiceUnavailable, "1"},
		{CodeInternal, http.StatusInternalServerError, ""},
	} {
		rec := httptest.NewRecorder()
		WriteError(rec, &Error{Code: tc.code, Message: "why"})
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d", tc.code, rec.Code, tc.status)
		}
		if got := rec.Header().Get("Retry-After"); got != tc.retryAfter {
			t.Errorf("%s: Retry-After %q, want %q", tc.code, got, tc.retryAfter)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s: Content-Type %q", tc.code, ct)
		}
		var env ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil {
			t.Fatalf("%s: body %q is not an error envelope: %v", tc.code, rec.Body, err)
		}
		if env.Error.Code != tc.code || env.Error.Message != "why" {
			t.Errorf("%s: envelope %+v", tc.code, env.Error)
		}
	}

	// An explicit status (413 travels under the invalid code) wins over
	// the code's default.
	rec := httptest.NewRecorder()
	WriteError(rec, &Error{Status: http.StatusRequestEntityTooLarge, Code: CodeInvalid, Message: "big"})
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("explicit status: got %d", rec.Code)
	}
}

func TestDecodeJSON(t *testing.T) {
	decode := func(body string, limit int64) (RankQuery, *Error) {
		var q RankQuery
		r := httptest.NewRequest(http.MethodPost, "/v2/rank", strings.NewReader(body))
		return q, DecodeJSON(httptest.NewRecorder(), r, limit, &q)
	}
	for _, body := range []string{`{"src":3,"dst":9,"k":2}`, "{\"src\":3,\"dst\":9,\"k\":2} \r\n\t "} {
		if q, err := decode(body, 1<<10); err != nil || q.Src != 3 || q.Dst != 9 || q.K != 2 {
			t.Fatalf("valid body %q: %+v, %v", body, q, err)
		}
	}
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"not json", "{", http.StatusBadRequest},
		{"empty", "", http.StatusBadRequest},
		{"unknown field", `{"src":1,"dst":2,"nope":3}`, http.StatusBadRequest},
		{"wrong type", `{"src":"one"}`, http.StatusBadRequest},
		{"two values", `{"src":1}{"dst":2}`, http.StatusBadRequest},
		{"trailing garbage", `{"src":1,"dst":2}xyz`, http.StatusBadRequest},
		{"oversized", `{"src":1,` + strings.Repeat(" ", 64) + `"dst":2}`, http.StatusRequestEntityTooLarge},
		// The whole body is read before it is decoded, so a first value
		// that fits does not make an oversized body acceptable.
		{"oversized after the value", `{"src":1,"dst":2}` + strings.Repeat(" ", 64), http.StatusRequestEntityTooLarge},
	} {
		_, err := decode(tc.body, 32)
		if err == nil || err.Status != tc.status || err.Code != CodeInvalid || err.Message == "" {
			t.Errorf("%s: got %+v, want %d %s", tc.name, err, tc.status, CodeInvalid)
		}
	}
}

func TestRequestContext(t *testing.T) {
	r := httptest.NewRequest(http.MethodPost, "/v2/rank", nil)

	// No timeout: the request's own context, no deadline.
	ctx, cancel := RequestContext(r, 0, time.Second)
	if ctx != r.Context() {
		t.Error("timeoutless request got a derived context")
	}
	cancel()
	if ctx.Err() != nil {
		t.Error("the no-op cancel canceled the request context")
	}

	// A timeout under the cap is honored; one over it is clamped.
	for _, tc := range []struct {
		ms   int64
		want time.Duration
	}{{50, 50 * time.Millisecond}, {60_000, time.Second}} {
		ctx, cancel := RequestContext(r, tc.ms, time.Second)
		dl, ok := ctx.Deadline()
		if left := time.Until(dl); !ok || left > tc.want || left < tc.want-500*time.Millisecond {
			t.Errorf("timeout_ms=%d: deadline in %v, want ~%v", tc.ms, left, tc.want)
		}
		cancel()
	}

	// Disconnect cancellation still propagates through a derived context.
	parent, disconnect := context.WithCancel(context.Background())
	ctx, cancel = RequestContext(r.WithContext(parent), 500, time.Second)
	defer cancel()
	disconnect()
	if ctx.Err() != context.Canceled {
		t.Errorf("derived context after disconnect: %v", ctx.Err())
	}
}

// serveOneRequest runs ListenAndServe on a loopback port with a handler
// that takes hold to answer 200, sends it one request, and returns once the
// handler is running: the serving context's cancel, the response status
// (0 on a transport error) and the helper's result.
func serveOneRequest(t *testing.T, hold, drain time.Duration) (context.CancelFunc, <-chan int, <-chan error) {
	t.Helper()
	entered := make(chan struct{})
	handler := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		time.Sleep(hold)
		w.WriteHeader(http.StatusOK)
	})
	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- ListenAndServe(ctx, "127.0.0.1:0", handler, drain, func(a net.Addr) { addrc <- a })
	}()
	var addr net.Addr
	select {
	case addr = <-addrc:
	case err := <-done:
		t.Fatalf("ListenAndServe returned before listening: %v", err)
	}
	status := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + addr.String() + "/")
		if err != nil {
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	<-entered
	return cancel, status, done
}

// TestListenAndServeDrains: a request in flight when the context is
// canceled finishes inside the drain bound and is answered, and the helper
// reports a clean shutdown.
func TestListenAndServeDrains(t *testing.T) {
	cancel, status, done := serveOneRequest(t, 50*time.Millisecond, 5*time.Second)
	cancel()
	if got := <-status; got != http.StatusOK {
		t.Fatalf("in-flight request answered %d, want 200", got)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("clean drain returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ListenAndServe did not return after the drain")
	}
}

// TestListenAndServeDrainDeadline: a request slower than the drain bound
// does not hold shutdown past it — the helper returns the deadline error
// within about drain + 100 ms.
func TestListenAndServeDrainDeadline(t *testing.T) {
	const drain = 200 * time.Millisecond
	cancel, status, done := serveOneRequest(t, drain+400*time.Millisecond, drain)
	start := time.Now()
	cancel()
	err := <-done
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow drain returned %v, want %v", err, context.DeadlineExceeded)
	}
	if elapsed < drain || elapsed > drain+100*time.Millisecond {
		t.Fatalf("returned after %v, want within [%v, %v]", elapsed, drain, drain+100*time.Millisecond)
	}
	<-status // the handler still finishes; wait so it does not outlive the test
}

package api

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"time"
)

// This file is the HTTP envelope of the query API: how a request body is
// read, how a response or a typed error is written, how a request's
// deadline is derived, and how a listener is run and drained. The server,
// the shard worker and the router all answer through it, so status codes,
// headers, error bodies and shutdown cannot drift between tiers.

// MaxRankBody bounds a /v2/rank request body, in bytes, on every tier.
const MaxRankBody = 1 << 20

// DefaultRankLimits gives the /v2/rank limits a tier's Config leaves zero
// or negative their defaults: k overrides up to 32, batches of up to 64
// queries, deadlines of up to 30 s. The server and the router both apply
// it, so a router validates exactly like a single server.
func DefaultRankLimits(maxK, maxBatch *int, maxTimeout *time.Duration) {
	*maxK = cmp.Or(max(*maxK, 0), 32)
	*maxBatch = cmp.Or(max(*maxBatch, 0), 64)
	*maxTimeout = cmp.Or(max(*maxTimeout, 0), 30*time.Second)
}

// ListenAndServe listens on addr and serves handler until ctx is canceled,
// then stops accepting connections and waits up to drain for in-flight
// requests to finish. onListen, when non-nil, receives the bound address
// once the listener is open. It returns nil after a complete drain,
// context.DeadlineExceeded when requests outlive drain, and otherwise the
// listen or serve error.
func ListenAndServe(ctx context.Context, addr string, handler http.Handler, drain time.Duration, onListen func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", addr, err)
	}
	if onListen != nil {
		onListen(ln.Addr())
	}
	hs := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		shutErr := hs.Shutdown(shutCtx)
		<-errc // Serve has returned http.ErrServerClosed
		return shutErr
	case err := <-errc:
		return err
	}
}

// WriteJSON writes v as the JSON body of a response with the given status.
// Rank success bodies go through WriteResult and WriteBatch (write.go).
func WriteJSON(w http.ResponseWriter, status int, v any) {
	setJSONHeader(w, status)
	_ = json.NewEncoder(w).Encode(v) // the status line is out; a dead client is all that can fail here
}

// jsonContentType is every JSON response's Content-Type value, shared so
// setting it allocates nothing. net/http copies header values when it
// writes them and Header.Set/Add replace or append, so the shared slice is
// never written through.
var jsonContentType = []string{"application/json; charset=utf-8"}

func setJSONHeader(w http.ResponseWriter, status int) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
}

// WriteError writes e as an error envelope under its status (derived from
// the code when unset). The retryable codes advertise a retry delay.
func WriteError(w http.ResponseWriter, e *Error) {
	if e.Status == 0 {
		e.Status = HTTPStatus(e.Code)
	}
	if e.Code == CodeBacklog || e.Code == CodeShardUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	WriteJSON(w, e.Status, ErrorEnvelope{Error: e})
}

// Invalidf builds an invalid-request error.
func Invalidf(format string, args ...any) *Error {
	return &Error{
		Status:  http.StatusBadRequest,
		Code:    CodeInvalid,
		Message: fmt.Sprintf(format, args...),
	}
}

// DecodeJSON decodes the request body, one JSON value followed only by
// whitespace, into v, refusing unknown fields and bodies over limit bytes
// (413; any other decoding failure is 400). Rank requests are read by
// DecodeRankRequest.
func DecodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) *Error {
	bp := bodyPool.Get().(*[]byte)
	defer putBody(bp)
	b, apiErr := readBody(w, r, limit, (*bp)[:0])
	*bp = b
	if apiErr != nil {
		return apiErr
	}
	return unmarshal(b, v)
}

// ReadBody reads the whole request body, refusing bodies over limit bytes
// (413) as DecodeJSON does.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, *Error) {
	return readBody(w, r, limit, nil)
}

// readBody appends the whole request body to b, refusing bodies over limit
// bytes (413).
func readBody(w http.ResponseWriter, r *http.Request, limit int64, b []byte) ([]byte, *Error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, 512)
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, bodyError(err)
		}
	}
}

func bodyError(err error) *Error {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return &Error{
			Status:  http.StatusRequestEntityTooLarge,
			Code:    CodeInvalid,
			Message: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
		}
	}
	return Invalidf("bad request body: %v", err)
}

// nopCancel avoids allocating a context.WithCancel on the timeoutless hot
// path; the request context alone already carries disconnect cancellation.
var nopCancel context.CancelFunc = func() {}

// RequestContext derives the computation context of a rank request: the
// HTTP request's context (canceled when the client disconnects), bounded
// by the body's timeout_ms capped at maxTimeout. The returned cancel must
// always be called.
func RequestContext(r *http.Request, timeoutMs int64, maxTimeout time.Duration) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	if timeoutMs <= 0 {
		return ctx, nopCancel
	}
	d := time.Duration(timeoutMs) * time.Millisecond
	if d > maxTimeout {
		d = maxTimeout
	}
	return context.WithTimeout(ctx, d)
}

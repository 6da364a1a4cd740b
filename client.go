package pathrank

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"pathrank/internal/api"
)

// Wire types of the HTTP query API (POST /v2/rank), shared verbatim by the
// server and this client so the two cannot drift apart.
type (
	// RankQuery is one origin-destination query as it travels over HTTP;
	// zero-valued fields select the serving snapshot's defaults.
	RankQuery = api.RankQuery
	// RankResult is one successful ranking as returned by the server.
	RankResult = api.RankResult
	// RankedPathWire is one ranked path of a RankResult.
	RankedPathWire = api.RankedPath
	// BatchItem is one entry of a batch response: a RankResult or a typed
	// per-item error.
	BatchItem = api.BatchItem
	// APIError is the typed failure the client returns for non-2xx
	// responses; its Code is one of the Code* constants and Status the
	// HTTP status it traveled with.
	APIError = api.Error
)

// Client is a Go SDK for a running pathrank-serve instance. The zero value
// plus a BaseURL is usable; all methods are safe for concurrent use.
//
//	c := &pathrank.Client{BaseURL: "http://localhost:8080"}
//	res, err := c.Rank(ctx, pathrank.RankQuery{Src: 12, Dst: 431, K: 8})
//
// Failed requests return an *APIError carrying the server's typed code;
// transport failures and 5xx backlog responses are retried (bounded by
// MaxRetries, honoring Retry-After and ctx). A deadline on ctx propagates
// to the server: unless the query names its own timeout_ms, the remaining
// time budget is sent so the server stops computing when the client stops
// waiting.
type Client struct {
	// BaseURL locates the server, e.g. "http://localhost:8080".
	BaseURL string
	// HTTP is the underlying client; nil uses http.DefaultClient.
	HTTP *http.Client
	// MaxRetries bounds retry attempts after the first try (default 2).
	// Only transport errors and 502/503/504 responses are retried — rank
	// queries are read-only, so retrying is always safe.
	MaxRetries int
	// Backoff is the base delay between retries (default 100ms), doubled
	// per attempt with full jitter: each delay is drawn uniformly from
	// [d/2, d], so a fleet of clients retrying a recovering server spreads
	// out instead of thundering in lockstep. A 503 Retry-After header
	// overrides the computed delay (jitter and cap do not apply to an
	// explicit server instruction).
	Backoff time.Duration
	// BackoffCap bounds a single computed delay (default 2s), so a long
	// retry budget backs off steadily instead of exponentially forever.
	BackoffCap time.Duration
	// MaxElapsed, when positive, is the total retry budget measured from
	// the first attempt: once it is spent, the last error is returned
	// instead of sleeping again, and a final delay never overshoots it.
	MaxElapsed time.Duration
}

// Rank answers one ranking query.
func (c *Client) Rank(ctx context.Context, q RankQuery) (*RankResult, error) {
	c.propagateDeadline(ctx, &q)
	var res RankResult
	if err := c.post(ctx, "/v2/rank", api.RankRequest{RankQuery: q}, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// RankBatch answers a batch of queries in one request: per-item errors,
// shared snapshot, and one NN scoring sweep server-side. timeout bounds
// the whole batch on the server (0 sends the ctx deadline, when any). An
// empty batch returns nil without a round-trip.
func (c *Client) RankBatch(ctx context.Context, queries []RankQuery, timeout time.Duration) ([]BatchItem, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	req := api.RankRequest{Queries: queries}
	if timeout > 0 {
		req.TimeoutMs = timeout.Milliseconds()
	} else {
		c.propagateDeadline(ctx, &req.RankQuery)
	}
	var res api.BatchResponse
	if err := c.post(ctx, "/v2/rank", req, &res); err != nil {
		return nil, err
	}
	return res.Results, nil
}

// Provenance reports the trainer's data-provenance state: the newest
// generation's Merkle commitments and, when the trainer runs a trajectory
// WAL, the health of the log. BaseURL must locate the trainer
// (pathrank-train's live mode), not a pathrank-serve instance.
func (c *Client) Provenance(ctx context.Context) (ProvenanceInfo, error) {
	var info ProvenanceInfo
	if err := c.get(ctx, "/v1/provenance", &info); err != nil {
		return ProvenanceInfo{}, err
	}
	return info, nil
}

// ProveTrajectory fetches the inclusion proof for ingested trajectory seq
// in the newest generation's training batch from the trainer. Verify it
// offline with VerifyInclusionProof; a 404 (trajectory not in the
// committed batch, or BaseURL not a trainer) arrives as an *APIError.
func (c *Client) ProveTrajectory(ctx context.Context, seq int64) (InclusionProof, error) {
	var proof InclusionProof
	if err := c.get(ctx, "/v1/provenance?seq="+strconv.FormatInt(seq, 10), &proof); err != nil {
		return InclusionProof{}, err
	}
	return proof, nil
}

// propagateDeadline fills q.TimeoutMs from ctx's deadline when the query
// does not name its own timeout, so the server abandons work the client
// will never read.
func (c *Client) propagateDeadline(ctx context.Context, q *RankQuery) {
	if q.TimeoutMs > 0 {
		return
	}
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			q.TimeoutMs = ms
		}
	}
}

// post sends body and decodes a 200 response into out, retrying transient
// failures.
func (c *Client) post(ctx context.Context, path string, body, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("pathrank: encode request: %w", err)
	}
	return c.do(ctx, http.MethodPost, path, payload, out)
}

// get fetches path and decodes a 200 response into out, retrying transient
// failures (all GET endpoints are read-only, so retrying is always safe).
func (c *Client) get(ctx context.Context, path string, out any) error {
	return c.do(ctx, http.MethodGet, path, nil, out)
}

// do runs one request with the shared retry loop.
func (c *Client) do(ctx context.Context, method, path string, payload []byte, out any) error {
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	retries := c.MaxRetries
	if retries == 0 {
		retries = 2
	}
	backoff := c.Backoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	maxDelay := c.BackoffCap
	if maxDelay <= 0 {
		maxDelay = 2 * time.Second
	}
	if maxDelay < backoff {
		maxDelay = backoff
	}
	start := time.Now()

	var lastErr error
	for attempt := 0; ; attempt++ {
		var body io.Reader
		if payload != nil {
			body = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
		if err != nil {
			return fmt.Errorf("pathrank: build request: %w", err)
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}

		resp, err := hc.Do(req)
		var retryAfter time.Duration
		switch {
		case err != nil:
			lastErr = fmt.Errorf("pathrank: %s: %w", path, err)
		default:
			apiErr, decodeErr := consumeResponse(resp, out)
			if decodeErr != nil {
				// A 200 with an undecodable body is deterministic
				// (proxy error page, server bug) — retrying re-sends
				// the identical request for the identical failure.
				return decodeErr
			}
			if apiErr == nil {
				return nil
			}
			if !retryableStatus(apiErr.Status) {
				return apiErr
			}
			lastErr = apiErr
			retryAfter = retryAfterOf(resp)
		}
		if attempt >= retries || ctx.Err() != nil {
			return lastErr
		}
		// Exponential backoff, capped, with full jitter in [d/2, d]. The
		// shift is clamped so a generous retry budget cannot overflow the
		// doubling into a negative duration.
		delay := maxDelay
		if attempt < 20 {
			if d := backoff << attempt; d < maxDelay {
				delay = d
			}
		}
		delay = delay/2 + rand.N(delay/2+1)
		if retryAfter > 0 {
			delay = retryAfter
		}
		if c.MaxElapsed > 0 {
			remaining := c.MaxElapsed - time.Since(start)
			if remaining <= 0 {
				return lastErr
			}
			if delay > remaining {
				delay = remaining
			}
		}
		select {
		case <-ctx.Done():
			return lastErr
		case <-time.After(delay):
		}
	}
}

// consumeResponse decodes resp: a 2xx body into out (returning nil, nil),
// or an error body into a typed *APIError.
func consumeResponse(resp *http.Response, out any) (*APIError, error) {
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, fmt.Errorf("pathrank: read response: %w", err)
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			return nil, fmt.Errorf("pathrank: decode response: %w", err)
		}
		return nil, nil
	}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err == nil && env.Error != nil {
		env.Error.Status = resp.StatusCode
		return env.Error, nil
	}
	// Not a v2 envelope (proxy error page, v1 body): synthesize a code
	// from the status so callers still get a typed error.
	return &APIError{
		Status:  resp.StatusCode,
		Code:    codeFromStatus(resp.StatusCode),
		Message: fmt.Sprintf("HTTP %d: %s", resp.StatusCode, truncate(string(raw), 200)),
	}, nil
}

// codeFromStatus maps a bare (non-envelope) HTTP status onto the nearest
// typed code. 404 deliberately maps to internal, not unroutable: a real
// unroutable pair always arrives as a typed envelope, while a bare 404 is
// a wrong BaseURL or path — reporting it as a routing verdict would point
// the user at their graph instead of their URL.
func codeFromStatus(status int) string {
	switch status {
	case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		return api.CodeInvalid
	case http.StatusRequestTimeout:
		return api.CodeCanceled
	case http.StatusGatewayTimeout:
		return api.CodeDeadline
	case http.StatusServiceUnavailable:
		return api.CodeBacklog
	default:
		return api.CodeInternal
	}
}

// retryableStatus reports whether a response status is worth retrying:
// transient gateway/backlog failures, never client errors.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// retryAfterOf parses a Retry-After delay in seconds, when present.
func retryAfterOf(resp *http.Response) time.Duration {
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

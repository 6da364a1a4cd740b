package api

import (
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"sync"
)

// This file is the one writer of POST /v2/rank success bodies and holds
// every JSON number rule they use. A ranking's paths array is encoded
// once, when the ranking is computed (appended by hand with AppendFloat
// for its floats, byte-for-byte json.Marshal of its []RankedPath), and
// every response that carries it — the request that computed it, each
// cache hit after it, a batch item — splices those bytes into an envelope
// appended by hand. The rarer parts — explain stats and a failed batch
// item's error — are json.Marshal output, which escapes as json.Encoder
// does. The output is byte-for-byte what json.NewEncoder(w).Encode writes
// for the equivalent RankResult or BatchResponse
// (TestAppendResultMatchesEncoder, FuzzAppendResult, FuzzAppendFloat).
// AppendRankRequest writes the one request body a server sends another, a
// router's proxied query, as json.Marshal would (FuzzAppendRankRequest).

// Rendered is a successful ranking ready to write: the fields of a
// RankResult with Paths already encoded as the JSON of its []RankedPath.
type Rendered struct {
	Src, Dst       int64
	K              int
	Cached, Shared bool
	// Paths is the JSON of the ranking's []RankedPath, as json.Marshal
	// encodes it.
	Paths []byte
	Stats *RankStats
}

// RenderedItem is one entry of a batch response, the BatchItem of a
// Rendered: exactly one of Response and Error is set.
type RenderedItem struct {
	Index    int
	Response *Rendered
	Error    *Error
}

// WriteResult writes r as the 200 body of a single-query response.
func WriteResult(w http.ResponseWriter, r *Rendered) {
	bp := bodyPool.Get().(*[]byte)
	*bp = appendResult((*bp)[:0], r)
	writeBody(w, bp)
}

// WriteBatch writes items as the 200 body of a batch response; errors is
// the number of failed items.
func WriteBatch(w http.ResponseWriter, items []RenderedItem, errors int) {
	bp := bodyPool.Get().(*[]byte)
	*bp = appendBatch((*bp)[:0], items, errors)
	writeBody(w, bp)
}

// WriteRelayed writes body, the 200 body another server wrote with
// WriteResult (newline included), through as it came.
func WriteRelayed(w http.ResponseWriter, body []byte) {
	setJSONHeader(w, http.StatusOK)
	_, _ = w.Write(body) // the status line is out; a dead client is all that can fail here
}

// bodyPool recycles request and response buffers, so a cache hit's
// request is read and its body written with no allocation. Buffers grown
// past maxPooledBody by a large batch are left to the collector rather
// than pinned in the pool.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 64 << 10

// writeBody writes the body in *bp, ended by the newline json.Encoder
// ends every value with, and returns the buffer to the pool.
func writeBody(w http.ResponseWriter, bp *[]byte) {
	*bp = append(*bp, '\n')
	setJSONHeader(w, http.StatusOK)
	_, _ = w.Write(*bp) // the status line is out; a dead client is all that can fail here
	putBody(bp)
}

// putBody returns a body buffer to the pool, unless it grew too large to
// keep.
func putBody(bp *[]byte) {
	if cap(*bp) <= maxPooledBody {
		bodyPool.Put(bp)
	}
}

// appendBatch appends the JSON of a batch response, as json.Marshal
// encodes a BatchResponse.
func appendBatch(b []byte, items []RenderedItem, errors int) []byte {
	b = append(b, `{"results":[`...)
	for i := range items {
		if i > 0 {
			b = append(b, ',')
		}
		it := &items[i]
		b = append(b, `{"index":`...)
		b = strconv.AppendInt(b, int64(it.Index), 10)
		if it.Response != nil {
			b = append(b, `,"response":`...)
			b = appendResult(b, it.Response)
		}
		if it.Error != nil {
			b = append(b, `,"error":`...)
			b = appendJSON(b, it.Error)
		}
		b = append(b, '}')
	}
	b = append(b, `],"errors":`...)
	b = strconv.AppendInt(b, int64(errors), 10)
	return append(b, '}')
}

// appendResult appends the JSON of r, as json.Marshal encodes a
// RankResult.
func appendResult(b []byte, r *Rendered) []byte {
	b = append(b, `{"src":`...)
	b = strconv.AppendInt(b, r.Src, 10)
	b = append(b, `,"dst":`...)
	b = strconv.AppendInt(b, r.Dst, 10)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(r.K), 10)
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, r.Cached)
	if r.Shared {
		b = append(b, `,"shared":true`...)
	}
	b = append(b, `,"paths":`...)
	b = append(b, r.Paths...)
	if r.Stats != nil {
		b = append(b, `,"stats":`...)
		b = appendJSON(b, r.Stats)
	}
	return append(b, '}')
}

// appendJSON appends json.Marshal(v). A value it refuses (a NaN
// threshold, which no decoded request carries) is written as null.
func appendJSON(b []byte, v any) []byte {
	js, err := json.Marshal(v)
	if err != nil {
		return append(b, "null"...)
	}
	return append(b, js...)
}

// AppendRankRequest appends the body of a single-query POST /v2/rank for
// q, as json.Marshal encodes RankRequest{RankQuery: q}. A string that JSON
// must escape (control characters, quotes, backslashes, HTML characters or
// any non-ASCII byte), or a threshold it refuses, hands the whole body to
// json.Marshal, whose error is returned.
func AppendRankRequest(b []byte, q RankQuery) ([]byte, error) {
	if !plainString(q.Strategy) || !plainString(q.Weight) || math.IsNaN(q.Threshold) || math.IsInf(q.Threshold, 0) {
		js, err := json.Marshal(RankRequest{RankQuery: q})
		return append(b, js...), err
	}
	b = append(b, `{"src":`...)
	b = strconv.AppendInt(b, q.Src, 10)
	b = append(b, `,"dst":`...)
	b = strconv.AppendInt(b, q.Dst, 10)
	if q.K != 0 {
		b = append(b, `,"k":`...)
		b = strconv.AppendInt(b, int64(q.K), 10)
	}
	if q.Strategy != "" {
		b = append(b, `,"strategy":"`...)
		b = append(b, q.Strategy...)
		b = append(b, '"')
	}
	if q.Threshold != 0 {
		b = append(b, `,"threshold":`...)
		b, _ = AppendFloat(b, q.Threshold) // finite: checked above
	}
	if q.MaxProbe != 0 {
		b = append(b, `,"max_probe":`...)
		b = strconv.AppendInt(b, int64(q.MaxProbe), 10)
	}
	if q.Weight != "" {
		b = append(b, `,"weight":"`...)
		b = append(b, q.Weight...)
		b = append(b, '"')
	}
	if q.Explain {
		b = append(b, `,"explain":true`...)
	}
	if q.TimeoutMs != 0 {
		b = append(b, `,"timeout_ms":`...)
		b = strconv.AppendInt(b, q.TimeoutMs, 10)
	}
	return append(b, '}'), nil
}

// plainString reports whether json.Marshal writes s as it is between its
// quotes: printable ASCII other than the characters it escapes.
func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// AppendFloat appends f as json.Marshal encodes a float64: the shortest
// decimal that round-trips, in 'f' form, or in 'e' form below 1e-6 and at
// or above 1e21 with a one-digit negative exponent's leading zero dropped.
// NaN and ±Inf fail with the error json.Marshal returns for them, so a
// rendering that refuses one refuses it exactly where json.Marshal did.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7, as encoding/json writes it.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

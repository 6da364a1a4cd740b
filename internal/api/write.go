package api

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
)

// This file is the one writer of POST /v2/rank success bodies. A ranking's
// paths array is encoded once, when the ranking is computed (json.Marshal
// of its []RankedPath), and every response that carries it — the request
// that computed it, each cache hit after it, a batch item — splices those
// bytes into an envelope appended by hand. The rarer parts — explain stats
// and a failed batch item's error — are json.Marshal output, which escapes
// as json.Encoder does. The output is byte-for-byte what
// json.NewEncoder(w).Encode writes for the equivalent RankResult or
// BatchResponse (TestAppendResultMatchesEncoder, FuzzAppendResult).

// Rendered is a successful ranking ready to write: the fields of a
// RankResult with Paths already encoded as the JSON of its []RankedPath.
type Rendered struct {
	Src, Dst       int64
	K              int
	Cached, Shared bool
	// Paths is json.Marshal of the ranking's []RankedPath.
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

// bodyPool recycles response buffers, so a cache hit's body costs a copy
// and no allocation. Buffers grown past maxPooledBody by a large batch are
// left to the collector rather than pinned in the pool.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 64 << 10

// writeBody writes the body in *bp, ended by the newline json.Encoder
// ends every value with, and returns the buffer to the pool.
func writeBody(w http.ResponseWriter, bp *[]byte) {
	*bp = append(*bp, '\n')
	setJSONHeader(w, http.StatusOK)
	_, _ = w.Write(*bp) // the status line is out; a dead client is all that can fail here
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

package api

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
)

// This file is the one reader of POST /v2/rank request bodies. The body is
// read whole into a pooled buffer and scanned by hand, with no reflection
// and no allocation for a single query. The scanner accepts only the plain
// form every client sends — one object of exact lower-case field names, each
// at most once, with integers, a JSON-grammar threshold, printable-ASCII
// strings without escapes, literal booleans and a queries array of such
// objects — and decodes it exactly as encoding/json would. Every other body
// (case-variant or duplicate keys, nulls, escapes, exponents in integer
// fields, syntax errors, ...) is decoded by encoding/json on the same bytes,
// so what a body decodes to, or the error it is answered with, does not
// depend on which of the two read it (TestDecodeRankRequest,
// FuzzDecodeRankRequest).

// DecodeRankRequest reads the body of a rank request and decodes it as
// DecodeJSON would decode it into a RankRequest: unknown fields, data after
// the object and bodies over limit bytes (413) are refused.
func DecodeRankRequest(w http.ResponseWriter, r *http.Request, limit int64) (RankRequest, *Error) {
	bp := bodyPool.Get().(*[]byte)
	defer putBody(bp)
	b, apiErr := readBody(w, r, limit, (*bp)[:0])
	*bp = b
	if apiErr != nil {
		return RankRequest{}, apiErr
	}
	return decodeRankRequest(b)
}

// decodeRankRequest decodes b, a whole request body, into a RankRequest
// that shares no memory with b.
func decodeRankRequest(b []byte) (RankRequest, *Error) {
	var req RankRequest
	if scanRankRequest(b, &req) {
		return req, nil
	}
	return unmarshalRankRequest(b)
}

// unmarshalRankRequest is encoding/json's reading of b: kept apart so the
// request value only escapes to the heap for the bodies the scanner defers.
func unmarshalRankRequest(b []byte) (RankRequest, *Error) {
	var req RankRequest
	apiErr := unmarshal(b, &req)
	return req, apiErr
}

// unmarshal decodes b, one JSON value followed only by whitespace, into v,
// refusing unknown fields.
func unmarshal(b []byte, v any) *Error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return Invalidf("bad request body: %v", err)
	}
	if skipSpace(b, int(dec.InputOffset())) < len(b) {
		return Invalidf("bad request body: data after the top-level value")
	}
	return nil
}

// Field bits of a scanned object, to refuse a key seen twice.
const (
	fieldSrc = 1 << iota
	fieldDst
	fieldK
	fieldStrategy
	fieldThreshold
	fieldMaxProbe
	fieldWeight
	fieldExplain
	fieldTimeoutMs
	fieldQueries
)

// rankScanner walks a request body. Each method consumes one token from
// b[i:] and reports false on anything outside the accepted form, leaving
// the body to encoding/json.
type rankScanner struct {
	b []byte
	i int
}

// scanRankRequest decodes b into req if b is in the form the scanner
// accepts, and reports whether it was.
func scanRankRequest(b []byte, req *RankRequest) bool {
	s := rankScanner{b: b}
	if !s.object(&req.RankQuery, &req.Queries) {
		return false
	}
	return skipSpace(b, s.i) == len(b)
}

// object scans one query object into q. queries is where a "queries" key
// is decoded to; nil for a batch item, which has no such field.
func (s *rankScanner) object(q *RankQuery, queries *[]RankQuery) bool {
	s.i = skipSpace(s.b, s.i)
	if !s.consume('{') {
		return false
	}
	s.i = skipSpace(s.b, s.i)
	if s.consume('}') {
		return true
	}
	var seen int
	for {
		key, ok := s.str()
		if !ok {
			return false
		}
		s.i = skipSpace(s.b, s.i)
		if !s.consume(':') {
			return false
		}
		s.i = skipSpace(s.b, s.i)
		var bit int
		switch string(key) {
		case "src":
			bit = fieldSrc
			q.Src, ok = s.int(math.MaxInt64)
		case "dst":
			bit = fieldDst
			q.Dst, ok = s.int(math.MaxInt64)
		case "k":
			bit = fieldK
			var v int64
			v, ok = s.int(math.MaxInt)
			q.K = int(v)
		case "strategy":
			bit = fieldStrategy
			q.Strategy, ok = s.value()
		case "threshold":
			bit = fieldThreshold
			q.Threshold, ok = s.float()
		case "max_probe":
			bit = fieldMaxProbe
			var v int64
			v, ok = s.int(math.MaxInt)
			q.MaxProbe = int(v)
		case "weight":
			bit = fieldWeight
			q.Weight, ok = s.value()
		case "explain":
			bit = fieldExplain
			q.Explain, ok = s.bool()
		case "timeout_ms":
			bit = fieldTimeoutMs
			q.TimeoutMs, ok = s.int(math.MaxInt64)
		case "queries":
			if queries == nil {
				return false
			}
			bit = fieldQueries
			*queries, ok = s.array()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		s.i = skipSpace(s.b, s.i)
		if s.consume('}') {
			return true
		}
		if !s.consume(',') {
			return false
		}
		s.i = skipSpace(s.b, s.i)
	}
}

// array scans a queries array. An empty array is a non-nil empty batch,
// as encoding/json decodes it.
func (s *rankScanner) array() ([]RankQuery, bool) {
	if !s.consume('[') {
		return nil, false
	}
	qs := []RankQuery{}
	s.i = skipSpace(s.b, s.i)
	if s.consume(']') {
		return qs, true
	}
	for {
		var q RankQuery
		if !s.object(&q, nil) {
			return nil, false
		}
		qs = append(qs, q)
		s.i = skipSpace(s.b, s.i)
		if s.consume(']') {
			return qs, true
		}
		if !s.consume(',') {
			return nil, false
		}
	}
}

func (s *rankScanner) consume(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str scans a string of printable ASCII other than the backslash, so its
// bytes are its value, and returns them.
func (s *rankScanner) str() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// value scans a strategy or weight string. The names the server knows are
// returned as constants; any other value is copied out of the body.
func (s *rankScanner) value() (string, bool) {
	b, ok := s.str()
	if !ok {
		return "", false
	}
	switch string(b) {
	case "tkdi":
		return "tkdi", true
	case "dtkdi":
		return "dtkdi", true
	case "length":
		return "length", true
	case "time":
		return "time", true
	case "auto":
		return "auto", true
	}
	return string(b), true
}

// int scans an integer in -?(0|[1-9][0-9]*) that lies in [-max-1, max].
// A fraction or exponent after the digits is left unconsumed, so the
// caller refuses the body at the next separator.
func (s *rankScanner) int(max int64) (int64, bool) {
	neg := s.consume('-')
	lim := uint64(max)
	if neg {
		lim++
	}
	start := s.i
	var u uint64
	for ; s.i < len(s.b) && isDigit(s.b[s.i]); s.i++ {
		d := uint64(s.b[s.i] - '0')
		if u > (lim-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	if !natural(s.b[start:s.i]) {
		return 0, false
	}
	if neg {
		return -int64(u), true
	}
	return int64(u), true
}

// float scans a number in JSON's grammar that strconv.ParseFloat parses
// without error: what encoding/json stores into a float64.
func (s *rankScanner) float() (float64, bool) {
	start := s.i
	s.consume('-')
	intStart := s.i
	s.digits()
	if !natural(s.b[intStart:s.i]) || s.consume('.') && s.digits() == 0 {
		return 0, false
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if !s.consume('+') {
			s.consume('-')
		}
		if s.digits() == 0 {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	return f, err == nil
}

// digits consumes decimal digits and returns how many.
func (s *rankScanner) digits() int {
	start := s.i
	for s.i < len(s.b) && isDigit(s.b[s.i]) {
		s.i++
	}
	return s.i - start
}

// natural reports whether digits read 0|[1-9][0-9]*: at least one, and no
// leading zero.
func natural(digits []byte) bool {
	return len(digits) > 0 && (digits[0] != '0' || len(digits) == 1)
}

// bool scans a true or false literal.
func (s *rankScanner) bool() (bool, bool) {
	if s.literal("true") {
		return true, true
	}
	return false, s.literal("false")
}

func (s *rankScanner) literal(lit string) bool {
	if len(s.b)-s.i >= len(lit) && string(s.b[s.i:s.i+len(lit)]) == lit {
		s.i += len(lit)
		return true
	}
	return false
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

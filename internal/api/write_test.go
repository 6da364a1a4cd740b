package api

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"
)

// encoderBytes is the reference: what json.Encoder writes for v without
// its trailing newline, or nil when it refuses v (a NaN or infinite
// float).
func encoderBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

// rendered is the Rendered form of r: its paths encoded the way the
// server encodes them once per computed ranking.
func rendered(t testing.TB, r *RankResult) *Rendered {
	t.Helper()
	paths, err := json.Marshal(r.Paths)
	if err != nil {
		t.Fatal(err)
	}
	return &Rendered{Src: r.Src, Dst: r.Dst, K: r.K, Cached: r.Cached, Shared: r.Shared, Paths: paths, Stats: r.Stats}
}

func renderedItems(t testing.TB, br *BatchResponse) []RenderedItem {
	t.Helper()
	items := make([]RenderedItem, len(br.Results))
	for i, it := range br.Results {
		items[i] = RenderedItem{Index: it.Index, Error: it.Error}
		if it.Response != nil {
			items[i].Response = rendered(t, it.Response)
		}
	}
	return items
}

// hostile holds the strings a writer most easily gets wrong: the HTML and
// JSON metacharacters, every kind of control byte, non-ASCII, the two
// JavaScript line terminators and invalid UTF-8.
var hostile = []string{
	"", "tkdi", "D-TkDI", "cross_shard", `<script>&"\`, "a\"b\\c",
	"\b\f\n\r\t\x00\x01\x1f\x7f", "café 日本 \U0001F600",
	"line\xe2\x80\xa8para\xe2\x80\xa9", "bad \xff\xfe utf8 \xc3", "\xe2\x80", "ok",
}

func randString(rng *rand.Rand) string {
	if rng.Intn(4) == 0 {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return string(b)
	}
	return hostile[rng.Intn(len(hostile))]
}

func randInt64(rng *rand.Rand) int64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return math.MaxInt64
	case 2:
		return math.MinInt64
	case 3:
		return -rng.Int63n(1 << 40)
	default:
		return rng.Int63n(1 << 20)
	}
}

func randResult(rng *rand.Rand) *RankResult {
	r := &RankResult{
		Src: randInt64(rng), Dst: randInt64(rng), K: int(randInt64(rng)),
		Cached: rng.Intn(2) == 0, Shared: rng.Intn(2) == 0,
	}
	if n := rng.Intn(4) - 1; n >= 0 {
		r.Paths = make([]RankedPath, n)
		for i := range r.Paths {
			p := &r.Paths[i]
			p.Rank, p.Score, p.LengthM, p.TimeS, p.Hops = i+1, rng.Float64(), 1e4*rng.Float64(), 1e3*rng.Float64(), int(randInt64(rng))
			if m := rng.Intn(5) - 1; m >= 0 {
				p.Vertices = make([]int64, m)
				for j := range p.Vertices {
					p.Vertices[j] = randInt64(rng)
				}
			}
		}
	}
	if rng.Intn(2) == 0 {
		st := &RankStats{
			Strategy: randString(rng), K: int(randInt64(rng)), Weight: randString(rng),
			Candidates: rng.Intn(64), GenNs: randInt64(rng), ScoreNs: randInt64(rng), Route: randString(rng),
		}
		if rng.Intn(2) == 0 {
			st.Threshold = rng.Float64()
		}
		if rng.Intn(2) == 0 {
			st.MaxProbe = int(randInt64(rng))
		}
		if n := rng.Intn(4) - 1; n >= 0 {
			st.Shards = make([]ShardStat, n)
			for i := range st.Shards {
				st.Shards[i] = ShardStat{Shard: i, Role: randString(rng), Calls: rng.Intn(5),
					TotalNs: randInt64(rng), Hedged: rng.Intn(2) == 0}
			}
		}
		r.Stats = st
	}
	return r
}

func randBatch(rng *rand.Rand) *BatchResponse {
	// The server always answers a batch with a results array, never null.
	br := &BatchResponse{Results: make([]BatchItem, rng.Intn(4)), Errors: int(randInt64(rng))}
	for i := range br.Results {
		it := &br.Results[i]
		it.Index = int(randInt64(rng))
		if rng.Intn(3) > 0 {
			it.Response = randResult(rng)
		}
		if rng.Intn(3) == 0 {
			it.Error = &Error{Status: rng.Intn(600), Code: randString(rng), Message: randString(rng)}
		}
	}
	return br
}

// checkResult and checkBatch compare the writer against json.Encoder on
// one value, skipping values the encoder refuses.
func checkResult(t *testing.T, r *RankResult) {
	t.Helper()
	want := encoderBytes(t, r)
	if want == nil {
		return
	}
	if got := appendResult(nil, rendered(t, r)); !bytes.Equal(got, want) {
		t.Fatalf("appendResult differs from json.Encoder:\n got %q\nwant %q", got, want)
	}
}

func checkBatch(t *testing.T, br *BatchResponse) {
	t.Helper()
	want := encoderBytes(t, br)
	if want == nil {
		return
	}
	if got := appendBatch(nil, renderedItems(t, br), br.Errors); !bytes.Equal(got, want) {
		t.Fatalf("appendBatch differs from json.Encoder:\n got %q\nwant %q", got, want)
	}
}

// TestAppendResultMatchesEncoder: random single and batch responses —
// extreme and negative IDs, k 0, shared, stats with Route and Shards,
// hostile strings in stats and errors — render byte-equal to
// json.NewEncoder(...).Encode.
func TestAppendResultMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		checkResult(t, randResult(rng))
		checkBatch(t, randBatch(rng))
	}
	// Every hostile string, in every string slot of the envelope.
	for _, s := range hostile {
		st := &RankStats{Strategy: s, Weight: s, Route: s, Shards: []ShardStat{{Role: s}}}
		checkResult(t, &RankResult{Paths: []RankedPath{}, Stats: st})
		checkBatch(t, &BatchResponse{Results: []BatchItem{{Error: &Error{Code: s, Message: s}}}})
	}
}

// TestWriteResultHeaders: the writers answer exactly as WriteJSON does —
// status, Content-Type and body, trailing newline included.
func TestWriteResultHeaders(t *testing.T) {
	r := &RankResult{Src: 3, Dst: 9, Cached: true, Paths: []RankedPath{{Rank: 1, Score: 0.5, Vertices: []int64{3, 9}}}}
	want := httptest.NewRecorder()
	WriteJSON(want, 200, r)
	for i := 0; i < 2; i++ { // the second write reuses a pooled buffer
		got := httptest.NewRecorder()
		WriteResult(got, rendered(t, r))
		if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") ||
			!bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("WriteResult %d %q %q, WriteJSON %d %q %q", got.Code, got.Header(), got.Body,
				want.Code, want.Header(), want.Body)
		}
	}
	br := &BatchResponse{Results: []BatchItem{{Index: 0, Response: r}, {Index: 1, Error: &Error{Code: CodeUnroutable, Message: "no"}}}, Errors: 1}
	want = httptest.NewRecorder()
	WriteJSON(want, 200, br)
	got := httptest.NewRecorder()
	WriteBatch(got, renderedItems(t, br), br.Errors)
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("WriteBatch %q, WriteJSON %q", got.Body, want.Body)
	}
}

// checkFloat compares AppendFloat with json.Marshal on one float: the same
// bytes, or an error from both with the same text.
func checkFloat(t *testing.T, f float64) {
	t.Helper()
	want, wantErr := json.Marshal(f)
	got, err := AppendFloat([]byte("x"), f)
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("AppendFloat(%v) error %v, json.Marshal error %v", f, err, wantErr)
		}
		return
	}
	if err != nil || !bytes.Equal(got, append([]byte("x"), want...)) {
		t.Fatalf("AppendFloat(%v) = %q, %v; json.Marshal %q", f, got, err, want)
	}
}

// TestAppendFloatMatchesMarshal: the float rule on the values it is most
// easily wrong about — signed zeros, subnormals, both sides of the 'e'
// thresholds, the extremes — and on random bit patterns.
func TestAppendFloatMatchesMarshal(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, 9.999999999999999e-7, 1e-7, -1e-7, 1.5e-10,
		1e20, 1e21, -1e21, 9.999999999999999e20, 1.2345e300, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 4.9e-324, 123456.789,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		checkFloat(t, f)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		checkFloat(t, math.Float64frombits(rng.Uint64()))
	}
}

// FuzzAppendFloat drives the float rule with arbitrary bit patterns,
// NaN payloads and infinities included.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1e-7, 1e21, 5e-324, math.NaN(), math.Inf(-1)} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkFloat(t, math.Float64frombits(bits))
	})
}

// FuzzAppendResult drives the hand-appended envelope — the IDs, k and
// flags around the spliced paths — with fuzzer-chosen values, in a single
// response and as a batch item.
func FuzzAppendResult(f *testing.F) {
	f.Add(int64(1), int64(-7), int64(math.MaxInt64), 0, true, false, false)
	f.Add(int64(2), int64(math.MinInt64), int64(0), -3, false, true, true)
	f.Fuzz(func(t *testing.T, seed, src, dst int64, k int, cached, shared, batch bool) {
		r := randResult(rand.New(rand.NewSource(seed)))
		r.Src, r.Dst, r.K, r.Cached, r.Shared = src, dst, k, cached, shared
		if !batch {
			checkResult(t, r)
			return
		}
		checkBatch(t, &BatchResponse{Results: []BatchItem{{Index: k, Response: r}}, Errors: k})
	})
}

// checkRankRequest compares AppendRankRequest with json.Marshal on one
// query: the same bytes after the prefix, or an error from both.
func checkRankRequest(t *testing.T, q RankQuery) {
	t.Helper()
	want, wantErr := json.Marshal(RankRequest{RankQuery: q})
	got, err := AppendRankRequest([]byte("x"), q)
	if wantErr != nil {
		if err == nil {
			t.Fatalf("AppendRankRequest(%+v) = %q, json.Marshal error %v", q, got, wantErr)
		}
		return
	}
	if err != nil || !bytes.Equal(got, append([]byte("x"), want...)) {
		t.Fatalf("AppendRankRequest(%+v) = %q, %v; json.Marshal %q", q, got, err, want)
	}
}

// FuzzAppendRankRequest drives the proxied-query encoder with arbitrary
// fields: strings that need escaping or are not UTF-8, zero and negative
// numbers, and every float bit pattern for the threshold.
func FuzzAppendRankRequest(f *testing.F) {
	f.Add(int64(3), int64(110), 0, "", uint64(0), 0, "", false, int64(0))
	f.Add(int64(-1), int64(math.MaxInt64), 32, "dtkdi", math.Float64bits(0.8), 320, "length", true, int64(30000))
	f.Add(int64(math.MinInt64), int64(0), -5, "tkdi", math.Float64bits(math.Copysign(0, -1)), -1, "time", false, int64(-9))
	f.Add(int64(1), int64(2), 3, "a\"b\\c<d>&\x01\x7f", math.Float64bits(1e-7), 4, " é\xff", true, int64(5))
	f.Add(int64(1), int64(2), 3, "tkdi", math.Float64bits(1e21), 4, "time", true, int64(5))
	f.Add(int64(1), int64(2), 3, "tkdi", math.Float64bits(math.NaN()), 4, "time", true, int64(5))
	f.Add(int64(1), int64(2), 3, "tkdi", math.Float64bits(math.Inf(-1)), 4, "time", true, int64(5))
	f.Fuzz(func(t *testing.T, src, dst int64, k int, strategy string, threshold uint64, maxProbe int, weight string, explain bool, timeoutMs int64) {
		checkRankRequest(t, RankQuery{
			Src: src, Dst: dst, K: k, Strategy: strategy, Threshold: math.Float64frombits(threshold),
			MaxProbe: maxProbe, Weight: weight, Explain: explain, TimeoutMs: timeoutMs,
		})
	})
}

package api

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// referenceDecode is the reading of a rank request body the scanner must
// reproduce: encoding/json's Decoder refusing unknown fields, plus the rule
// that only whitespace may follow the value.
func referenceDecode(b []byte) (RankRequest, *Error) {
	var req RankRequest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, &Error{Status: http.StatusBadRequest, Code: CodeInvalid, Message: "bad request body: " + err.Error()}
	}
	if strings.TrimLeft(string(b[dec.InputOffset():]), " \t\r\n") != "" {
		return req, &Error{Status: http.StatusBadRequest, Code: CodeInvalid, Message: "bad request body: data after the top-level value"}
	}
	return req, nil
}

// checkDecode compares decodeRankRequest with the reference on one body,
// then overwrites the bytes it decoded so a result that still pointed into
// them would show. It reports whether the scanner accepted the body.
func checkDecode(t *testing.T, body []byte) (scanned bool) {
	t.Helper()
	want, wantErr := referenceDecode(body)
	buf := bytes.Clone(body)
	scanned = scanRankRequest(buf, new(RankRequest))
	got, err := decodeRankRequest(buf)
	for i := range buf {
		buf[i] = 'x'
	}
	switch {
	case wantErr != nil:
		if err == nil || *err != *wantErr {
			t.Fatalf("%q: got error %+v, want %+v", body, err, wantErr)
		}
	case err != nil:
		t.Fatalf("%q: got error %+v, want %+v", body, err, want)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("%q: got %+v, want %+v", body, got, want)
	}
	if scanned && wantErr != nil {
		t.Fatalf("%q: the scanner accepted a body encoding/json refuses", body)
	}
	return scanned
}

// marshalRequest is a body as the client SDK and the benchmark write it.
func marshalRequest(req RankRequest) string {
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// decodeCases are bodies the scanner is most easily wrong about, and
// whether it reads them itself (true) or leaves them to encoding/json.
var decodeCases = []struct {
	body    string
	scanned bool
}{
	// The workloads' bodies: single queries, and batches of local k=32
	// tkdi queries, marshaled from the wire types.
	{marshalRequest(RankRequest{RankQuery: RankQuery{Src: 1, Dst: 70}}), true},
	{marshalRequest(RankRequest{RankQuery: RankQuery{Src: 3151, Dst: 0}}), true},
	{marshalRequest(RankRequest{Queries: []RankQuery{
		{Src: 12, Dst: 340, K: 32, Strategy: "tkdi"}, {Src: 2001, Dst: 1987, K: 32, Strategy: "tkdi"},
		{Src: 5, Dst: 61, K: 32, Strategy: "tkdi"}, {Src: 900, Dst: 1011, K: 32, Strategy: "tkdi"},
		{Src: 77, Dst: 133, K: 32, Strategy: "tkdi"}, {Src: 3100, Dst: 3044, K: 32, Strategy: "tkdi"},
		{Src: 640, Dst: 700, K: 32, Strategy: "tkdi"}, {Src: 1500, Dst: 1444, K: 32, Strategy: "tkdi"},
	}}), true},
	// Every field, and the client's explain and timeout.
	{marshalRequest(RankRequest{RankQuery: RankQuery{Src: 3, Dst: 110, K: 5, Strategy: "dtkdi", Threshold: 0.8,
		MaxProbe: 40, Weight: "length", Explain: true, TimeoutMs: 250}}), true},
	{`{"src":3,"dst":40,"k":3,"strategy":"tkdi","weight":"time","explain":true}`, true},
	{`{"src":2,"dst":60,"explain":false,"threshold":0.5,"timeout_ms":20}`, true},
	{`{"queries":[{"src":0,"dst":70},{"src":5,"dst":9,"explain":true},{"src":2,"dst":60,"threshold":0.5}],"timeout_ms":9}`, true},
	{` { "src" : 1 ,` + "\n\t\r" + `"dst" : 2 } `, true},
	{`{}`, true},
	{`{"strategy":"diversified","weight":"distance"}`, true},
	{`{"strategy":"","weight":"auto"}`, true},
	{`{"strategy":"a b~!#$%&'()*+,-./:;<=>?@[]^_{|}` + "`" + `"}`, true},

	// The error bodies the serving tests send.
	{"{", false},
	{"", false},
	{`{"src":0,`, false},
	{`{"src":1,"dst":2,"nope":3}`, false},
	{`{"src":"one"}`, false},
	{`{"src":0,"dst":1,"engine":"ch"}`, false},
	{`{"queries":[{"src":0,"dst":1,"engine":"ch"}]}`, false},
	{`{"artifact":"/nonexistent/bundle.prart"}`, false},

	// Keys: encoding/json matches them case-insensitively, and the last of
	// a duplicate wins.
	{`{"SRC":1,"Dst":2}`, false},
	{`{"src":1,"src":2}`, false},
	{`{"queries":[{"src":1,"k":7}],"queries":[{"dst":2}]}`, false},
	{`{"queries":[{"src":1,"src":4}]}`, false},
	{`{"s\u0072c":1}`, false},
	{`{"max_probe":3,"MAX_PROBE":4}`, false},

	// null leaves a field as it was.
	{`{"src":null,"dst":2}`, false},
	{`{"strategy":null,"threshold":null,"explain":null}`, false},
	{`null`, false},

	// Integer fields.
	{`{"src":1e2}`, false},
	{`{"src":1.0}`, false},
	{`{"src":01}`, false},
	{`{"src":-0}`, true},
	{`{"src":-}`, false},
	{`{"src":+1}`, false},
	{`{"src":9223372036854775807,"dst":-9223372036854775808}`, true},
	{`{"src":9223372036854775808}`, false},
	{`{"dst":-9223372036854775809}`, false},
	{`{"timeout_ms":-9223372036854775808}`, true},
	{`{"k":9223372036854775807,"max_probe":-9223372036854775808}`, math.MaxInt == math.MaxInt64},
	{`{"k":9223372036854775808}`, false},
	{`{"max_probe":-9223372036854775809}`, false},
	{`{"k":99999999999999999999999}`, false},
	{`{"k":"5"}`, false},

	// Threshold: JSON's number grammar, within float64's range.
	{`{"threshold":1e400}`, false},
	{`{"threshold":-1e400}`, false},
	{`{"threshold":+1}`, false},
	{`{"threshold":1.}`, false},
	{`{"threshold":.5}`, false},
	{`{"threshold":01.5}`, false},
	{`{"threshold":1e}`, false},
	{`{"threshold":-0}`, true},
	{`{"threshold":0}`, true},
	{`{"threshold":1E-3}`, true},
	{`{"threshold":2.5e+2}`, true},
	{`{"threshold":-0.0e-0}`, true},
	{`{"threshold":1e-400}`, true},
	{`{"threshold":0.1000000000000000055511151231257827}`, true},

	// Strings: escapes, non-ASCII, control bytes and a byte-order mark.
	{`{"strategy":"tk\u0064i"}`, false},
	{`{"weight":"ti\"me"}`, false},
	{`{"weight":"ti\\me"}`, false},
	{`{"strategy":"tkdï"}`, false},
	{"{\"strategy\":\"\xff\"}", false},
	{"{\"strategy\":\"a\tb\"}", false},
	{"{\"weight\":\"\x7f\"}", false},
	{"\xef\xbb\xbf{\"src\":1,\"dst\":2}", false},
	{`{"strategy":5}`, false},
	{`{"strategy":"tkdi`, false},

	// Booleans.
	{`{"explain":tru}`, false},
	{`{"explain":truex}`, false},
	{`{"explain":1}`, false},
	{`{"explain":"true"}`, false},

	// Batches: an empty array is an empty batch, null is no batch, and an
	// item has no queries of its own.
	{`{"queries":[]}`, true},
	{`{"queries":[ ]}`, true},
	{`{"queries":null}`, false},
	{`{"queries":[{}]}`, true},
	{`{"queries":[{"src":1,"dst":2,"nope":3}]}`, false},
	{`{"queries":[{"queries":[]}]}`, false},
	{`{"queries":[{"src":1},]}`, false},
	{`{"queries":[[]]}`, false},
	{`{"queries":[null]}`, false},
	{`{"queries":{}}`, false},

	// Syntax around the object, and what may follow it.
	{`{"src":1,}`, false},
	{`{,"src":1}`, false},
	{`{"src" 1}`, false},
	{`{"src":1 "dst":2}`, false},
	{`[]`, false},
	{`"src"`, false},
	{`{"src":1,"dst":2}{"src":3,"dst":4}`, false},
	{`{"src":1,"dst":2}xyz`, false},
	{`{"src":1,"dst":2}}`, false},
	{"{\"src\":1,\"dst\":2}\x00", false},
	{"{\"src\":1,\"dst\":2} \r\n\t", true},
}

// TestDecodeRankRequest: on every case the decoder agrees with the
// reference — the same request, or the same status, code and message — and
// the scanner reads exactly the bodies it is meant to.
func TestDecodeRankRequest(t *testing.T) {
	for _, tc := range decodeCases {
		if scanned := checkDecode(t, []byte(tc.body)); scanned != tc.scanned {
			t.Errorf("%q: scanned %v, want %v", tc.body, scanned, tc.scanned)
		}
	}

	// Through the HTTP envelope: a pooled buffer reused across requests,
	// and the size limit applied to the whole body.
	decode := func(body string, limit int64) (RankRequest, *Error) {
		r := httptest.NewRequest(http.MethodPost, "/v2/rank", strings.NewReader(body))
		return DecodeRankRequest(httptest.NewRecorder(), r, limit)
	}
	for i := 0; i < 2; i++ {
		req, err := decode(`{"queries":[{"src":3,"dst":9,"strategy":"diversified"}]}`, 1<<10)
		want := RankRequest{Queries: []RankQuery{{Src: 3, Dst: 9, Strategy: "diversified"}}}
		if err != nil || !reflect.DeepEqual(req, want) {
			t.Fatalf("valid body: %+v, %v", req, err)
		}
	}
	for _, body := range []string{
		`{"src":1,` + strings.Repeat(" ", 64) + `"dst":2}`,
		`{"src":1,"dst":2}` + strings.Repeat(" ", 64),
	} {
		_, err := decode(body, 32)
		if err == nil || err.Status != http.StatusRequestEntityTooLarge || err.Code != CodeInvalid ||
			err.Message != "request body exceeds 32 bytes" {
			t.Errorf("%q over a 32-byte limit: got %+v, want 413", body, err)
		}
	}
}

// FuzzDecodeRankRequest: on arbitrary bytes the scanner must decode what
// encoding/json decodes, or defer to it.
func FuzzDecodeRankRequest(f *testing.F) {
	for _, tc := range decodeCases {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
	})
}

package api

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"path"
	"strings"
	"testing"
)

// tableRoutes is every route the tiers serve, plus a path with both a GET
// and a POST route and one with an explicit HEAD route, so the Allow
// header and the HEAD fallback are exercised beyond one method per path.
// Each handler writes its own route, so a response names the route that
// ran.
var tableRoutes = func() []Route {
	var routes []Route
	for _, pattern := range []string{
		"POST /v2/rank", "POST /v1/reload", "GET /healthz", "GET /metrics",
		"GET /shard/info", "POST /shard/corridor",
		"POST /v1/ingest", "GET /v1/provenance",
		"GET /both", "POST /both", "GET /head", "HEAD /head",
	} {
		method, p, _ := strings.Cut(pattern, " ")
		routes = append(routes, Route{Method: method, Path: p, Handler: func(w http.ResponseWriter, _ *http.Request) {
			io.WriteString(w, pattern)
		}})
	}
	return routes
}()

// referenceMux is a net/http ServeMux registered with routes' patterns.
func referenceMux(routes []Route) *http.ServeMux {
	mux := http.NewServeMux()
	for _, rt := range routes {
		mux.HandleFunc(rt.Method+" "+rt.Path, rt.Handler)
	}
	return mux
}

// readRequest parses a request line the way the HTTP server does; ok is
// false when the server would refuse it before any handler runs.
func readRequest(method, target string) (*http.Request, bool) {
	r, err := http.ReadRequest(bufio.NewReader(strings.NewReader(method + " " + target + " HTTP/1.1\r\nHost: example.com\r\n\r\n")))
	return r, err == nil
}

func serveRecorded(h http.Handler, r *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec
}

func TestRouteTable(t *testing.T) {
	table := RouteTable(tableRoutes...)
	for _, tc := range []struct {
		method, target string
		status         int
		allow, body    string
	}{
		{"POST", "/v2/rank", http.StatusOK, "", "POST /v2/rank"},
		{"POST", "/v2/rank?k=3", http.StatusOK, "", "POST /v2/rank"},
		{"GET", "/healthz", http.StatusOK, "", "GET /healthz"},
		{"HEAD", "/healthz", http.StatusOK, "", "GET /healthz"},
		{"HEAD", "/head", http.StatusOK, "", "HEAD /head"},
		{"POST", "/both", http.StatusOK, "", "POST /both"},
		{"GET", "/v2/rank", http.StatusMethodNotAllowed, "POST", "Method Not Allowed\n"},
		{"PUT", "/shard/corridor", http.StatusMethodNotAllowed, "POST", "Method Not Allowed\n"},
		{"POST", "/healthz", http.StatusMethodNotAllowed, "GET, HEAD", "Method Not Allowed\n"},
		{"DELETE", "/both", http.StatusMethodNotAllowed, "GET, HEAD, POST", "Method Not Allowed\n"},
		{"POST", "/head", http.StatusMethodNotAllowed, "GET, HEAD", "Method Not Allowed\n"},
		{"POST", "/v2/rank/", http.StatusNotFound, "", "404 page not found\n"},
		{"GET", "/", http.StatusNotFound, "", "404 page not found\n"},
		{"POST", "/v1/rank", http.StatusNotFound, "", "404 page not found\n"},
		{"GET", "/metrics.json", http.StatusNotFound, "", "404 page not found\n"},
		{"POST", "/shard/boundary", http.StatusNotFound, "", "404 page not found\n"},
		{"GET", "/HEALTHZ", http.StatusNotFound, "", "404 page not found\n"},
		// ServeMux redirects these two to /v2/rank; the table does not.
		{"POST", "//v2/rank", http.StatusNotFound, "", "404 page not found\n"},
		{"POST", "/v2/./rank", http.StatusNotFound, "", "404 page not found\n"},
		// ServeMux unescapes each segment; the table does not.
		{"POST", "/v2/ran%6B", http.StatusNotFound, "", "404 page not found\n"},
	} {
		r, ok := readRequest(tc.method, tc.target)
		if !ok {
			t.Fatalf("%s %s: not a valid request line", tc.method, tc.target)
		}
		rec := serveRecorded(table, r)
		if rec.Code != tc.status || rec.Header().Get("Allow") != tc.allow || rec.Body.String() != tc.body {
			t.Errorf("%s %s: %d, Allow %q, body %q; want %d, %q, %q",
				tc.method, tc.target, rec.Code, rec.Header().Get("Allow"), rec.Body, tc.status, tc.allow, tc.body)
		}
	}
}

func TestRouteTableRefusesDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a duplicate route did not panic")
		}
	}()
	RouteTable(tableRoutes[0], tableRoutes[0])
}

// cleanPath is ServeMux's canonical form of a request path: what it
// redirects any other spelling to.
func cleanPath(p string) string {
	if p == "" {
		return "/"
	}
	if p[0] != '/' {
		p = "/" + p
	}
	np := path.Clean(p)
	if p[len(p)-1] == '/' && np != "/" {
		np += "/"
	}
	return np
}

// FuzzRoutesMatchServeMux checks the route table against net/http's
// ServeMux registered with the same patterns. On a path written cleanly
// and without percent-escapes both must answer with the same status,
// Allow header and body; any other spelling must get the table's 404.
func FuzzRoutesMatchServeMux(f *testing.F) {
	for _, method := range []string{"GET", "HEAD", "POST", "PUT", "DELETE", "OPTIONS", "CONNECT", "get"} {
		for _, target := range []string{
			"/v2/rank", "/healthz", "/both", "/head", "/shard/info?x=1", "/v2/rank/", "/", "/v1/rank",
			"//v2/rank", "/v2/./rank", "/v2/ran%6B", "/v2%2Frank", "/a%20b", "*", "http://h/metrics",
		} {
			f.Add(method, target)
		}
	}
	table := RouteTable(tableRoutes...)
	mux := referenceMux(tableRoutes)
	f.Fuzz(func(t *testing.T, method, target string) {
		r, ok := readRequest(method, target)
		if !ok {
			return
		}
		got := serveRecorded(table, r)
		if escaped := r.URL.EscapedPath(); r.URL.RawPath != "" || cleanPath(escaped) != escaped {
			if got.Code != http.StatusNotFound || got.Body.String() != "404 page not found\n" {
				t.Fatalf("%s %q (unclean or escaped): %d %q, want the 404", method, target, got.Code, got.Body)
			}
			return
		}
		want := serveRecorded(mux, r)
		if got.Code != want.Code || got.Header().Get("Allow") != want.Header().Get("Allow") || got.Body.String() != want.Body.String() {
			t.Fatalf("%s %q: table %d, Allow %q, body %q; ServeMux %d, %q, %q", method, target,
				got.Code, got.Header().Get("Allow"), got.Body, want.Code, want.Header().Get("Allow"), want.Body)
		}
	})
}

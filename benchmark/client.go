package main

import (
	"bytes"
	"io"
	"net/http"
	"time"
)

// client sends one request at a time to a handler in-process: no socket,
// no scheduler hand-off, so what is timed is the served code. It reuses one
// request and one response writer, so it adds almost nothing of its own to
// the short cache-hit path.
type client struct {
	handler http.Handler
	req     *http.Request
	body    bytes.Reader
	rw      recorder
}

// recorder is the smallest http.ResponseWriter that keeps status and body.
type recorder struct {
	header http.Header
	code   int
	buf    bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.header }
func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}
func (r *recorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.buf.Write(p)
}

func newClient(h http.Handler) *client {
	c := &client{handler: h}
	req, err := http.NewRequest(http.MethodPost, "http://bench.local/v2/rank", nil)
	if err != nil {
		panic(err) // constant, well-formed URL
	}
	req.Header.Set("Content-Type", "application/json")
	c.req = req
	c.rw.header = make(http.Header)
	return c
}

// do sends body and returns the status, the response body (valid until the
// next call) and how long the handler took.
func (c *client) do(body []byte) (int, []byte, time.Duration) {
	c.body.Reset(body)
	c.req.Body = io.NopCloser(&c.body)
	c.req.ContentLength = int64(len(body))
	clear(c.rw.header)
	c.rw.code = 0
	c.rw.buf.Reset()
	start := time.Now()
	c.handler.ServeHTTP(&c.rw, c.req)
	d := time.Since(start)
	return c.rw.code, c.rw.buf.Bytes(), d
}

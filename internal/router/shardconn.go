package router

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"pathrank/internal/obsv"
)

// This file is the router's HTTP/1.1 client to its shard workers. A call
// writes its whole request in one Write and reads the reply with
// http.ReadResponse, both on the calling goroutine, over a keep-alive
// connection from the shard's pool.

// shardPool is the router's client to one shard worker: the worker's
// parsed base URL and its idle keep-alive connections.
type shardPool struct {
	base   string // the URL as configured, for error messages
	host   string // the Host header: the URL's host, port included if given
	addr   string // where to dial: host:port, port 80 when the URL names none
	prefix string // the URL's path, which every request path extends

	maxIdle int
	dials   obsv.Counter
	// dial opens a connection to addr; tests wrap it to watch the
	// connections a pool uses.
	dial func(ctx context.Context, network, addr string) (net.Conn, error)

	mu   sync.Mutex
	idle []*shardConn // the last one returned is the next one taken
}

// shardConn is one keep-alive connection to a shard worker.
type shardConn struct {
	conn net.Conn
	br   *bufio.Reader
	req  []byte // the last request written, kept for its capacity
}

// maxKeptRequest bounds the request buffer a connection keeps between
// calls: a rare large corridor query does not pin its buffer.
const maxKeptRequest = 64 << 10

// newShardPool parses a shard worker's base URL. Workers serve plain HTTP,
// so the URL must be an http:// URL with a host; user info, a query or a
// fragment could not be honored and are refused too.
func newShardPool(raw string, maxIdle int, dials obsv.Counter) (*shardPool, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return nil, err
	}
	if u.Scheme != "http" || u.Host == "" || u.User != nil || u.RawQuery != "" || u.Fragment != "" {
		return nil, fmt.Errorf("%q is not an http://host[:port][/path] URL", raw)
	}
	port := u.Port()
	if port == "" {
		port = "80"
	}
	var d net.Dialer
	return &shardPool{
		base:    strings.TrimSuffix(raw, "/"),
		host:    u.Host,
		addr:    net.JoinHostPort(u.Hostname(), port),
		prefix:  strings.TrimSuffix(u.EscapedPath(), "/"),
		maxIdle: maxIdle,
		dials:   dials,
		dial:    d.DialContext,
	}, nil
}

// roundTrip sends one request to the shard under ctx — body and its
// contentType, or neither for a GET — and returns the reply's status and
// body. A pooled connection that fails before the first byte of the reply
// (the worker closed it while it was idle) is replaced by a fresh one, once,
// and the request sent again: every shard endpoint is read-only.
func (p *shardPool) roundTrip(ctx context.Context, method, path, contentType string, body []byte) (int, []byte, error) {
	c := p.take()
	reused := c != nil
	for {
		if c == nil {
			conn, err := p.dial(ctx, "tcp", p.addr)
			if err != nil {
				return 0, nil, p.fail(ctx, method, path, err)
			}
			p.dials.Inc()
			c = &shardConn{conn: conn, br: bufio.NewReader(conn)}
		}
		c.req = p.appendRequest(c.req[:0], method, path, contentType, body)
		status, b, answered, err := c.exchange(ctx, p)
		switch {
		case err == nil:
			return status, b, nil
		case reused && !answered && ctx.Err() == nil:
			c, reused = nil, false
		default:
			return 0, nil, p.fail(ctx, method, path, err)
		}
	}
}

// fail names the failed request in err, as net/http's client does, and
// reports it as ctx's error once ctx has fired.
func (p *shardPool) fail(ctx context.Context, method, path string, err error) error {
	if ctx.Err() != nil {
		err = ctx.Err()
	}
	return fmt.Errorf("%s %q: %w", method, p.base+path, err)
}

// appendRequest appends the HTTP/1.1 request for path to b.
func (p *shardPool) appendRequest(b []byte, method, path, contentType string, body []byte) []byte {
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, p.prefix...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, p.host...)
	if contentType != "" {
		b = append(b, "\r\nContent-Type: "...)
		b = append(b, contentType...)
	}
	if body != nil {
		b = append(b, "\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
	}
	b = append(b, "\r\n\r\n"...)
	return append(b, body...)
}

// exchange writes c.req and reads the reply under ctx, then pools c or
// closes it. answered reports whether any byte of the reply arrived before
// an error. When ctx fires, c's deadline is set in the past and c closed,
// which ends a blocked Write or Read at once.
func (c *shardConn) exchange(ctx context.Context, p *shardPool) (status int, body []byte, answered bool, err error) {
	stop := context.AfterFunc(ctx, func() {
		c.conn.SetDeadline(time.Unix(1, 0))
		c.conn.Close()
	})
	keep := false
	defer func() {
		if fired := !stop(); keep && !fired {
			p.put(c)
		} else {
			c.conn.Close()
		}
	}()
	if _, err = c.conn.Write(c.req); err != nil {
		return 0, nil, false, err
	}
	if _, err = c.br.Peek(1); err != nil {
		return 0, nil, false, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err == nil {
		body, err = readBody(resp)
	}
	if err != nil {
		return 0, nil, true, err
	}
	keep = !resp.Close && c.br.Buffered() == 0
	return resp.StatusCode, body, true, nil
}

// readBody reads a reply's body to its end: into a buffer of exactly its
// Content-Length when it declares one, as the relayed /v2/rank body and
// every shard-wire frame do, and through the chunked reader otherwise. A
// body over maxShardResponse bytes is an error.
func readBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 {
		if n > maxShardResponse {
			return nil, fmt.Errorf("response body of %d bytes exceeds the %d-byte bound", n, maxShardResponse)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, b); err != nil {
			return nil, err
		}
		return b, nil
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxShardResponse+1))
	if err == nil && len(b) > maxShardResponse {
		err = fmt.Errorf("response body exceeds the %d-byte bound", maxShardResponse)
	}
	return b, err
}

// take returns an idle connection, or nil when there is none.
func (p *shardPool) take() *shardConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.idle)
	if n == 0 {
		return nil
	}
	c := p.idle[n-1]
	p.idle[n-1] = nil
	p.idle = p.idle[:n-1]
	return c
}

// put returns c to the idle connections, or closes it when maxIdle are
// idle already.
func (p *shardPool) put(c *shardConn) {
	if cap(c.req) > maxKeptRequest {
		c.req = nil
	}
	p.mu.Lock()
	if len(p.idle) < p.maxIdle {
		p.idle = append(p.idle, c)
		c = nil
	}
	p.mu.Unlock()
	if c != nil {
		c.conn.Close()
	}
}

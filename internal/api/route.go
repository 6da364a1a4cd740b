package api

import (
	"fmt"
	"net/http"
	"slices"
	"strings"
)

// Route is one endpoint of a RouteTable: a method, a byte-exact path and
// the handler that answers it.
type Route struct {
	Method, Path string
	Handler      http.HandlerFunc
}

// RouteTable returns the handler that serves routes by exact match, the
// routing of every tier. A request's path must equal a route's Path byte
// for byte, and is looked up only when it was written without
// percent-escapes (r.URL.RawPath is empty). Otherwise it answers as
// net/http's ServeMux answers for the same patterns:
//
//   - a GET route also answers HEAD;
//   - a known path with another method gets 405 with an Allow header;
//   - any other path gets http.NotFound.
//
// Unlike ServeMux it does not redirect an unclean path (//v2/rank,
// /v2/./rank) to the clean one, nor unescape one (/v2/ran%6B): both get
// 404. A duplicate route panics.
func RouteTable(routes ...Route) http.Handler {
	var t routeTable
	for _, rt := range routes {
		i := slices.IndexFunc(t, func(p routePath) bool { return p.path == rt.Path })
		if i < 0 {
			t = append(t, routePath{path: rt.Path})
			i = len(t) - 1
		}
		if t[i].route(rt.Method) != nil {
			panic(fmt.Sprintf("api: duplicate route %s %s", rt.Method, rt.Path))
		}
		t[i].methods = append(t[i].methods, rt)
	}
	for i := range t {
		p := &t[i]
		if get := p.route(http.MethodGet); get != nil && p.route(http.MethodHead) == nil {
			p.methods = append(p.methods, Route{Method: http.MethodHead, Path: p.path, Handler: get.Handler})
		}
		var allow []string
		for _, m := range p.methods {
			allow = append(allow, m.Method)
		}
		slices.Sort(allow)
		p.allow = strings.Join(allow, ", ")
	}
	return t
}

// routeTable holds one entry per distinct path, in registration order, and
// is searched in that order: no tier has more than six paths, and each puts
// its hot one first.
type routeTable []routePath

type routePath struct {
	path    string
	allow   string // the Allow header of a 405 on this path
	methods []Route
}

func (t routeTable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.RawPath == "" {
		for i := range t {
			p := &t[i]
			if p.path != r.URL.Path {
				continue
			}
			if m := p.route(r.Method); m != nil {
				m.Handler(w, r)
				return
			}
			w.Header().Set("Allow", p.allow)
			http.Error(w, http.StatusText(http.StatusMethodNotAllowed), http.StatusMethodNotAllowed)
			return
		}
	}
	http.NotFound(w, r)
}

// route returns p's route for method, or nil.
func (p *routePath) route(method string) *Route {
	for i := range p.methods {
		if p.methods[i].Method == method {
			return &p.methods[i]
		}
	}
	return nil
}

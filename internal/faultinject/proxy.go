package faultinject

import (
	"fmt"
	"net/http"
	"net/http/httputil"
	"net/url"

	"github.com/dpgrid/dpgrid/internal/noise"
)

// Proxy is a reverse proxy that fronts one live backend through a
// fault-injecting Transport: everything the backend serves flows
// through the plan, so a real dpserve node can be killed, flapped,
// slowed, or dripped without touching its process. The chaos suite
// stands one of these in front of each backend it torments and points
// placements at proxy addresses instead of backend addresses.
type Proxy struct {
	Transport *Transport
	handler   http.Handler
}

// NewProxy builds a reverse proxy to target (a base URL such as
// "http://127.0.0.1:8081") whose exchanges run through a Transport
// configured with plan and src. Transport errors — injected or real —
// surface to the client as 502 Bad Gateway, which the cluster router
// treats exactly like a dead backend.
func NewProxy(target string, plan Plan, src noise.Source) (*Proxy, error) {
	u, err := url.Parse(target)
	if err != nil {
		return nil, fmt.Errorf("faultinject: proxy target %q: %w", target, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("faultinject: proxy target %q: want http(s)://host[:port]", target)
	}
	tr := New(nil, plan, src)
	rp := httputil.NewSingleHostReverseProxy(u)
	rp.Transport = tr
	rp.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
		http.Error(w, "faultinject proxy: "+err.Error(), http.StatusBadGateway)
	}
	return &Proxy{Transport: tr, handler: rp}, nil
}

// ServeHTTP implements http.Handler.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.handler.ServeHTTP(w, r)
}

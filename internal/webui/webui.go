// Package webui serves the human-facing pattern panel of a pattern
// service: the canned patterns of the default tenant of an internal/serve
// Server, rendered as SVG cards with their score breakdowns and as DOT,
// on one mux with that server's /v1 API and the operational endpoints of
// a long-lived process (/metrics, /healthz, /debug/pprof/*). Every panel
// request loads the tenant's current snapshot once and renders from it,
// so the panel always shows what GET /v1/patterns serves; it never reads
// a database or runs a matcher. cmd/guiserve wires it to a Maintainer.
package webui

import (
	"bytes"
	"encoding/json"
	"fmt"
	"html/template"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/serve"
)

// Server is the one handler set of a pattern-service listener: the panel,
// the /v1 API and the operational endpoints.
type Server struct {
	api *serve.Server
	mux *http.ServeMux
}

// NewServer builds the handler set over api: the read-only panel (/ and
// /pattern/{i}.svg|.dot) rendering api's default tenant, api itself under
// /v1/, and the endpoints MountObservability mounts. The panel routes
// answer GET and HEAD only; other methods get 405 with an Allow header.
func NewServer(api *serve.Server, metricsHandler http.Handler, health func() any) *Server {
	s := &Server{api: api, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /{$}", s.handleIndex)
	s.mux.HandleFunc("GET /pattern/{file}", s.handlePattern)
	s.mux.Handle("/v1/", api)
	MountObservability(s.mux, metricsHandler, health)
	return s
}

// MountObservability mounts the operational endpoints of a long-lived
// process on mux:
//
//   - /metrics serves metricsHandler (OpenMetrics exposition of a
//     metrics.Registry),
//   - /healthz serves health() as JSON with a 200 status (the handler is
//     liveness: reachable means serving; degradation detail belongs in the
//     payload), and
//   - /debug/pprof/* serves the standard Go profiling endpoints on mux —
//     CPU profiles taken here carry the pipeline's per-stage pprof labels
//     (pipeline.WithStage), so `go tool pprof -tagfocus stage=<name>`
//     attributes samples to stages.
//
// health may be nil (the endpoint then reports only {"status":"ok"}).
func MountObservability(mux *http.ServeMux, metricsHandler http.Handler, health func() any) {
	mux.Handle("/metrics", metricsHandler)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		var payload any = struct {
			Status string `json:"status"`
		}{"ok"}
		if health != nil {
			payload = health()
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(payload)
	})
	mux.HandleFunc("/debug/pprof/", netpprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
}

// BaseURL returns the http:// URL at which a local client reaches a TCP
// listener bound to a: its IP and port, with an unspecified IP (from ":0",
// "0.0.0.0:0" or "[::]:0") shown as localhost. Startup banners print
// it from the bound listener rather than the -addr flag, so an explicit
// host or an ephemeral port reads as a usable URL.
func BaseURL(a net.Addr) string {
	host, port, _ := net.SplitHostPort(a.String())
	if ip := net.ParseIP(host); ip == nil || ip.IsUnspecified() {
		host = "localhost"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// snapshot returns the default tenant's current snapshot, or writes a 404
// and returns nil when the tenant is not registered.
func (s *Server) snapshot(w http.ResponseWriter, r *http.Request) *serve.Snapshot {
	t := s.api.Tenant(serve.DefaultTenant)
	if t == nil {
		http.NotFound(w, r)
		return nil
	}
	return t.Snapshot()
}

var indexTemplate = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html><head><title>CATAPULT patterns — {{.Stats.Dataset}}</title>
<style>
body { font-family: sans-serif; margin: 2em; background: #fafafa; }
h1 { font-size: 1.3em; }
.panel { display: flex; flex-wrap: wrap; gap: 12px; }
.card { background: white; border: 1px solid #ddd; border-radius: 6px; padding: 8px; width: 180px; }
.card .meta { font-size: 0.72em; color: #555; margin-top: 4px; }
</style></head><body>
<h1>Canned pattern panel — {{.Stats.Dataset}} ({{.Stats.Patterns}} patterns, version {{.Stats.Version}})</h1>
<p>Drag targets a visual query builder would expose; scores follow Eq 2 of the paper.</p>
<div class="panel">
{{range .Patterns}}
  <div class="card">
    <img src="/pattern/{{.Index}}.svg" width="160" height="160" alt="pattern {{.Index}}">
    <div class="meta">#{{.Index}} &middot; |V|={{.Vertices}} |E|={{.Edges}}<br>
    score={{printf "%.4f" .Score}}<br>
    ccov={{printf "%.3f" .Ccov}} lcov={{printf "%.3f" .Lcov}}<br>
    div={{printf "%.0f" .Div}} cog={{printf "%.2f" .Cog}}</div>
  </div>
{{end}}
</div>
<p><a href="/v1/patterns">/v1/patterns</a> serves these patterns as JSON, each
with its transaction text, which POST /v1/search and POST /v1/suggest accept.</p>
</body></html>`))

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot(w, r)
	if snap == nil {
		return
	}
	var buf bytes.Buffer
	err := indexTemplate.Execute(&buf, struct {
		Stats    serve.Stats
		Patterns []serve.PatternView
	}{snap.Stats(), snap.PatternViews()})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}

// handlePattern serves /pattern/<i>.svg and /pattern/<i>.dot.
func (s *Server) handlePattern(w http.ResponseWriter, r *http.Request) {
	file := r.PathValue("file")
	ext := file[strings.LastIndexByte(file, '.')+1:]
	if ext != "svg" && ext != "dot" {
		http.NotFound(w, r)
		return
	}
	snap := s.snapshot(w, r)
	if snap == nil {
		return
	}
	patterns := snap.Patterns()
	idx, err := strconv.Atoi(strings.TrimSuffix(file, "."+ext))
	if err != nil || idx < 0 || idx >= len(patterns) {
		http.NotFound(w, r)
		return
	}
	g := patterns[idx].Graph
	if ext == "svg" {
		w.Header().Set("Content-Type", "image/svg+xml")
		_, _ = fmt.Fprint(w, layout.SVG(g, layout.SVGOptions{Size: 160, Seed: int64(idx)}))
		return
	}
	w.Header().Set("Content-Type", "text/vnd.graphviz")
	_ = graph.WriteDOT(w, g, fmt.Sprintf("pattern%d", idx))
}

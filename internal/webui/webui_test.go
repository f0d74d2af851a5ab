package webui

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/serve"
)

func testPatterns() []*core.Pattern {
	g1 := graph.New(3, 2)
	c := g1.AddVertex("C")
	o := g1.AddVertex("O")
	n := g1.AddVertex("N")
	g1.MustAddEdge(c, o)
	g1.MustAddEdge(o, n)
	g2 := graph.New(3, 3)
	a := g2.AddVertex("C")
	b := g2.AddVertex("C")
	d := g2.AddVertex("C")
	g2.MustAddEdge(a, b)
	g2.MustAddEdge(b, d)
	g2.MustAddEdge(d, a)
	return []*core.Pattern{
		{Graph: g1, Score: 0.5, Ccov: 0.4, Lcov: 1, Div: 1, Cog: 1.33},
		{Graph: g2, Score: 0.3, Ccov: 0.2, Lcov: 0.9, Div: 3, Cog: 3},
	}
}

// cyclingSource is a serve.Source whose every refresh installs the next
// pattern set of sets (cyclically), so snapshot version v serves
// sets[(v-1) % len(sets)].
type cyclingSource struct {
	db   *graph.DB
	sets [][]*core.Pattern

	mu  sync.Mutex
	cur int
}

func (c *cyclingSource) State() serve.State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return serve.State{Dataset: c.db.Name, DB: c.db, Patterns: c.sets[c.cur]}
}

func (c *cyclingSource) Refresh(ctx context.Context, gs []*graph.Graph) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cur = (c.cur + 1) % len(c.sets)
	return nil
}

// newTestServer builds the handler set over a pattern service whose
// default tenant serves sets[0] from a database named name.
func newTestServer(t *testing.T, name string, sets ...[]*core.Pattern) (*Server, *serve.Tenant) {
	t.Helper()
	if len(sets) == 0 {
		sets = [][]*core.Pattern{testPatterns()}
	}
	var gs []*graph.Graph
	for _, p := range testPatterns() {
		gs = append(gs, p.Graph)
	}
	api := serve.NewServer(serve.Options{})
	tn, err := api.AddTenant(serve.DefaultTenant, &cyclingSource{db: graph.NewDB(name, gs), sets: sets})
	if err != nil {
		t.Fatal(err)
	}
	return NewServer(api, metrics.NewRegistry().Handler(), nil), tn
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestIndexPage(t *testing.T) {
	s, _ := newTestServer(t, "test-db")
	rec := get(t, s, "/")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"test-db", "2 patterns, version 1", "/pattern/0.svg", "/pattern/1.svg", "score=0.5000", "/v1/patterns"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q", want)
		}
	}
}

func TestIndexNotFoundForOtherPaths(t *testing.T) {
	s, _ := newTestServer(t, "x")
	if rec := get(t, s, "/nope"); rec.Code != http.StatusNotFound {
		t.Errorf("status %d, want 404", rec.Code)
	}
}

func TestPatternSVG(t *testing.T) {
	s, _ := newTestServer(t, "x")
	rec := get(t, s, "/pattern/0.svg")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "image/svg+xml" {
		t.Errorf("content type %q", ct)
	}
	if !strings.HasPrefix(rec.Body.String(), "<svg") {
		t.Error("body is not SVG")
	}
}

func TestPatternDOT(t *testing.T) {
	s, _ := newTestServer(t, "x")
	rec := get(t, s, "/pattern/1.dot")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "graph \"pattern1\"") {
		t.Errorf("DOT body wrong: %s", rec.Body.String())
	}
}

func TestPatternBadRequests(t *testing.T) {
	s, _ := newTestServer(t, "x")
	for _, path := range []string{"/pattern/99.svg", "/pattern/-1.svg", "/pattern/abc.svg", "/pattern/0.png"} {
		if rec := get(t, s, path); rec.Code != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, rec.Code)
		}
	}
}

// TestErrorPaths walks the panel's failure surface in one table: bad
// pattern indices, malformed DOT/SVG requests, wrong methods — the render
// handlers are read-only and must answer 405, never 200, to writes — and
// the former panel-side JSON, search and suggest endpoints, which /v1
// replaced and which must answer 404 to every method.
func TestErrorPaths(t *testing.T) {
	s, _ := newTestServer(t, "x")
	for _, tc := range []struct {
		name, method, path, body string
		want                     int
	}{
		{"index ok", http.MethodGet, "/", "", http.StatusOK},
		{"index HEAD ok", http.MethodHead, "/", "", http.StatusOK},
		{"index POST", http.MethodPost, "/", "x", http.StatusMethodNotAllowed},
		{"index DELETE", http.MethodDelete, "/", "", http.StatusMethodNotAllowed},
		{"json POST", http.MethodPost, "/api/patterns.json", "x", http.StatusNotFound},
		{"json PUT", http.MethodPut, "/api/patterns.json", "x", http.StatusNotFound},
		{"json GET", http.MethodGet, "/api/patterns.json", "", http.StatusNotFound},
		{"svg POST", http.MethodPost, "/pattern/0.svg", "x", http.StatusMethodNotAllowed},
		{"dot POST", http.MethodPost, "/pattern/1.dot", "x", http.StatusMethodNotAllowed},
		{"search GET", http.MethodGet, "/api/search", "", http.StatusNotFound},
		{"search POST", http.MethodPost, "/api/search", "t # 0\nv 0 C\n", http.StatusNotFound},
		{"suggest GET", http.MethodGet, "/api/suggest", "", http.StatusNotFound},
		{"suggest DELETE", http.MethodDelete, "/api/suggest", "", http.StatusNotFound},
		{"suggest POST", http.MethodPost, "/api/suggest", "t # 0\nv 0 C\n", http.StatusNotFound},
		{"dot out of range", http.MethodGet, "/pattern/2.dot", "", http.StatusNotFound},
		{"dot negative", http.MethodGet, "/pattern/-1.dot", "", http.StatusNotFound},
		{"dot non-numeric", http.MethodGet, "/pattern/zero.dot", "", http.StatusNotFound},
		{"dot empty index", http.MethodGet, "/pattern/.dot", "", http.StatusNotFound},
		{"unknown extension", http.MethodGet, "/pattern/0.pdf", "", http.StatusNotFound},
		{"bare pattern dir", http.MethodGet, "/pattern/", "", http.StatusNotFound},
		{"nested pattern path", http.MethodGet, "/pattern/0/1.svg", "", http.StatusNotFound},
		{"svg overflow index", http.MethodGet, "/pattern/99999999999999999999.svg", "", http.StatusNotFound},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var req *http.Request
			if tc.body == "" {
				req = httptest.NewRequest(tc.method, tc.path, nil)
			} else {
				req = httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			}
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != tc.want {
				t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, rec.Code, tc.want)
			}
			if rec.Code == http.StatusMethodNotAllowed && rec.Header().Get("Allow") == "" {
				t.Errorf("%s %s: 405 without Allow header", tc.method, tc.path)
			}
		})
	}
}

// TestNewServerMountsAPIAndObservability checks the routing of the one
// handler set: /v1/* reaches the pattern service, /metrics, /healthz and
// pprof answer beside the panel.
func TestNewServerMountsAPIAndObservability(t *testing.T) {
	s, _ := newTestServer(t, "x")
	rec := get(t, s, "/v1/patterns")
	if rec.Code != http.StatusOK || rec.Header().Get("X-Snapshot-Version") != "1" {
		t.Errorf("/v1/patterns: status %d, version header %q", rec.Code, rec.Header().Get("X-Snapshot-Version"))
	}
	if rec := get(t, s, "/metrics"); rec.Code != http.StatusOK || !strings.HasSuffix(rec.Body.String(), "# EOF\n") {
		t.Errorf("/metrics: status %d, body %q", rec.Code, rec.Body.String())
	}
	if rec := get(t, s, "/healthz"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"status":"ok"`) {
		t.Errorf("/healthz: status %d, body %q", rec.Code, rec.Body.String())
	}
	if rec := get(t, s, "/debug/pprof/"); rec.Code != http.StatusOK {
		t.Errorf("/debug/pprof/: status %d", rec.Code)
	}
}

// TestBaseURL checks the startup-banner URL on real listeners: an explicit
// host keeps its address, an unspecified one reads as localhost, the port
// is the bound one (never the requested 0), and the URL reaches the
// listener's /healthz.
func TestBaseURL(t *testing.T) {
	for _, tc := range []struct{ addr, prefix string }{
		{"127.0.0.1:0", "http://127.0.0.1:"},
		{":0", "http://localhost:"},
	} {
		ln, err := net.Listen("tcp", tc.addr)
		if err != nil {
			t.Fatal(err)
		}
		_, port, _ := net.SplitHostPort(ln.Addr().String())
		url := BaseURL(ln.Addr())
		if url != tc.prefix+port || port == "0" {
			t.Errorf("BaseURL(%s bound as %s) = %q, want %q", tc.addr, ln.Addr(), url, tc.prefix+port)
		}
		mux := http.NewServeMux()
		MountObservability(mux, http.NotFoundHandler(), nil)
		hs := &http.Server{Handler: mux}
		go hs.Serve(ln)
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Errorf("GET %s/healthz: %v", url, err)
		} else {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("GET %s/healthz: status %d", url, resp.StatusCode)
			}
		}
		hs.Close()
	}
	v6 := &net.TCPAddr{IP: net.IPv6loopback, Port: 8080}
	if got := BaseURL(v6); got != "http://[::1]:8080" {
		t.Errorf("BaseURL(%s) = %q, want http://[::1]:8080", v6, got)
	}
}

// TestPatternsJSON checks that /v1/patterns on the panel's mux is the
// JSON form of the panel: same snapshot, same cards, and texts in the
// transaction format /v1/search accepts.
func TestPatternsJSON(t *testing.T) {
	s, _ := newTestServer(t, "jsondb")
	rec := get(t, s, "/v1/patterns")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var out serve.PatternsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad json: %v", err)
	}
	if out.Stats.Dataset != "jsondb" || len(out.Patterns) != 2 {
		t.Errorf("payload wrong: %+v", out)
	}
	if out.Patterns[0].Edges != 2 || out.Patterns[1].Edges != 3 {
		t.Errorf("pattern sizes wrong: %+v", out.Patterns)
	}
	for i, p := range out.Patterns {
		db, err := graph.Read(strings.NewReader(p.Text), "text")
		if err != nil || db.Len() != 1 {
			t.Fatalf("pattern %d text is not one transaction-format graph: %v\n%s", i, err, p.Text)
		}
		var want strings.Builder
		if err := graph.WriteDOT(&want, db.Graph(0), fmt.Sprintf("pattern%d", i)); err != nil {
			t.Fatal(err)
		}
		if got := get(t, s, fmt.Sprintf("/pattern/%d.dot", i)).Body.String(); got != want.String() {
			t.Errorf("card %d DOT differs from /v1/patterns text:\n%s\nwant\n%s", i, got, want.String())
		}
	}
}

var (
	headerRe = regexp.MustCompile(`\((\d+) patterns, version (\d+)\)`)
	cardRe   = regexp.MustCompile(`class="card"`)
)

// TestPanelConsistentUnderRefresh issues panel GETs while refreshes swap
// pattern sets of different sizes back to back: every index page must
// render exactly the cards of one snapshot — as many as that version's
// Stats.Patterns, which is the size of the set that version installed.
// Run under -race by make serve-race.
func TestPanelConsistentUnderRefresh(t *testing.T) {
	three := append(testPatterns(), testPatterns()[0])
	sets := [][]*core.Pattern{testPatterns(), testPatterns()[:1], three}
	s, tn := newTestServer(t, "race", sets...)

	const readers, reads = 4, 150
	readersDone := make(chan struct{})
	refreshes := make(chan int)
	go func() {
		n := 0
		defer func() { refreshes <- n }()
		for {
			select {
			case <-readersDone:
				return
			default:
			}
			if _, err := tn.Refresh(context.Background(), nil); err != nil {
				t.Errorf("refresh %d: %v", n, err)
				return
			}
			n++
		}
	}()

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				rec := get(t, s, "/")
				body := rec.Body.String()
				m := headerRe.FindStringSubmatch(body)
				if rec.Code != http.StatusOK || m == nil {
					t.Errorf("index: status %d, no header in %q", rec.Code, body)
					return
				}
				n, _ := strconv.Atoi(m[1])
				v, _ := strconv.Atoi(m[2])
				if cards := len(cardRe.FindAllString(body, -1)); cards != n {
					t.Errorf("version %d: %d cards, header says %d patterns", v, cards, n)
				}
				if want := len(sets[(v-1)%len(sets)]); n != want {
					t.Errorf("version %d: %d patterns, the set it installed has %d", v, n, want)
				}
				if rec := get(t, s, "/pattern/0.svg"); rec.Code != http.StatusOK {
					t.Errorf("/pattern/0.svg: status %d", rec.Code)
				}
			}
		}()
	}
	wg.Wait()
	close(readersDone)
	n := <-refreshes
	if v := tn.Snapshot().Version(); v != uint64(n)+1 {
		t.Errorf("final version %d after %d refreshes, want %d", v, n, n+1)
	}
}

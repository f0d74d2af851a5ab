package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	catapult "repro"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/webui"
)

func testConfig() catapult.Config {
	return catapult.Config{
		Budget:     catapult.Budget{EtaMin: 3, EtaMax: 5, Gamma: 4},
		Clustering: catapult.ClusterConfig{Strategy: catapult.HybridMCCS, N: 10, MinSupport: 0.2},
		Seed:       7,
	}
}

// scrape GETs /metrics from the server and parses the OpenMetrics text
// into series-name → value.
func scrape(t *testing.T, srv *webui.Server) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	return parseOpenMetrics(t, rec.Body.String())
}

// seriesLine matches one OpenMetrics sample: name{labels} value.
var seriesLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)

// parseOpenMetrics validates the scraped body line by line: every non-#
// line must be a well-formed sample, TYPE lines must precede their
// family's samples, and the body must end with # EOF.
func parseOpenMetrics(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	typed := make(map[string]string)
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	if lines[len(lines)-1] != "# EOF" {
		t.Fatalf("exposition does not end with # EOF: %q", lines[len(lines)-1])
	}
	for _, line := range lines {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		m := seriesLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		name := m[1]
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
			"_total"), "_bucket"), "_sum"), "_count")
		if _, ok := typed[base]; !ok {
			if _, ok := typed[name]; !ok {
				t.Fatalf("sample %q has no preceding TYPE line", line)
			}
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("sample %q: bad value: %v", line, err)
		}
		out[m[1]+m[2]] = v
	}
	return out
}

// TestMetricsEndpointMonotoneAcrossRuns scrapes /metrics after one
// pipeline run and again after a second run on the same registry: stage
// latency histograms, pipeline counters and cache hit-ratio gauges must be
// present, well-formed and monotone.
func TestMetricsEndpointMonotoneAcrossRuns(t *testing.T) {
	db := dataset.AIDSLike(40, 1)
	reg := metrics.NewRegistry()

	srv, _, _, err := buildServer(context.Background(), db, testConfig(), reg, "")
	if err != nil {
		t.Fatal(err)
	}
	first := scrape(t, srv)

	// Second run, same registry: families aggregate.
	srv2, _, _, err := buildServer(context.Background(), db, testConfig(), reg, "")
	if err != nil {
		t.Fatal(err)
	}
	second := scrape(t, srv2)

	// Per-stage duration histograms: every phase of the run must have
	// completed at least once, twice after the second run.
	for _, stage := range []string{"clustering", "mine", "coarse", "fine", "csg", "select"} {
		count := fmt.Sprintf(`catapult_stage_duration_seconds_count{stage=%q}`, stage)
		if first[count] < 1 {
			t.Errorf("first scrape: %s = %v, want >= 1", count, first[count])
		}
		if second[count] < first[count]+1 {
			t.Errorf("%s not monotone across runs: %v then %v", count, first[count], second[count])
		}
		sum := fmt.Sprintf(`catapult_stage_duration_seconds_sum{stage=%q}`, stage)
		if second[sum] < first[sum] {
			t.Errorf("%s decreased: %v then %v", sum, first[sum], second[sum])
		}
		inf := fmt.Sprintf(`catapult_stage_duration_seconds_bucket{stage=%q,le="+Inf"}`, stage)
		if second[inf] != second[count] {
			t.Errorf("+Inf bucket %v != count %v for stage %s", second[inf], second[count], stage)
		}
	}

	// Bucket counts must be nondecreasing in le within one scrape.
	prev := -1.0
	for _, le := range []string{"0.001", "0.05", "1", "60", "+Inf"} {
		k := fmt.Sprintf(`catapult_stage_duration_seconds_bucket{stage="select",le=%q}`, le)
		v, ok := second[k]
		if !ok {
			t.Fatalf("missing bucket %s", k)
		}
		if v < prev {
			t.Errorf("bucket le=%s count %v below previous %v", le, v, prev)
		}
		prev = v
	}

	// Pipeline counter totals, monotone.
	for _, c := range []string{"vf2_calls", "walks", "candidates_generated", "cover_cache_misses"} {
		k := fmt.Sprintf(`catapult_pipeline_events_total{counter=%q}`, c)
		if first[k] <= 0 {
			t.Errorf("first scrape: %s = %v, want > 0", k, first[k])
		}
		if second[k] < first[k] {
			t.Errorf("%s decreased: %v then %v", k, first[k], second[k])
		}
	}

	// Cache hit-ratio gauges present and sane. The second run repeats the
	// identical workload on fresh engines, so ratios stay within [0, 1].
	for _, g := range []string{"catapult_cover_cache_hit_ratio", "catapult_simcache_hit_ratio"} {
		v, ok := second[g]
		if !ok {
			t.Fatalf("missing gauge %s", g)
		}
		if v < 0 || v > 1 {
			t.Errorf("%s = %v, want within [0, 1]", g, v)
		}
	}
	if v := second["catapult_cover_cache_hit_ratio"]; v <= 0 {
		t.Errorf("cover hit ratio = %v, want > 0 (scoring revisits candidates)", v)
	}

	// Stage completion counters and in-flight gauges (all runs done).
	if v := second[`catapult_stage_runs_total{stage="select"}`]; v < 2 {
		t.Errorf("select stage runs = %v, want >= 2", v)
	}
	if v := second[`catapult_stage_active{stage="select"}`]; v != 0 {
		t.Errorf("select stage active = %v, want 0 between runs", v)
	}
}

// TestMaintainerMetricsExposed wires a Maintainer to the same registry and
// checks its operational gauges appear on the scrape.
func TestMaintainerMetricsExposed(t *testing.T) {
	db := dataset.AIDSLike(30, 2)
	reg := metrics.NewRegistry()
	cfg := testConfig()
	cfg.Observer = metrics.NewTrace(reg)
	mt, err := catapult.NewMaintainerCtx(context.Background(), db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mt.EnableMetrics(reg)
	if _, err := mt.AddGraphsCtx(context.Background(), dataset.AIDSLike(3, 9).Graphs); err != nil {
		t.Fatal(err)
	}

	api := catapult.NewPatternServer(catapult.PatternServerOptions{Metrics: reg})
	if _, err := api.AddTenant(catapult.ServeDefaultTenant, mt.ServeSource()); err != nil {
		t.Fatal(err)
	}
	got := scrape(t, webui.NewServer(api, reg.Handler(), nil))
	if v := got["catapult_maintainer_refreshes_total"]; v != 1 {
		t.Errorf("maintainer refreshes = %v, want 1", v)
	}
	if v := got["catapult_maintainer_pending_graphs"]; v != 0 {
		t.Errorf("maintainer pending = %v, want 0", v)
	}
	if v := got["catapult_maintainer_next_retry_unix_seconds"]; v != 0 {
		t.Errorf("maintainer next retry = %v, want 0 when idle", v)
	}
	if _, ok := got["catapult_maintainer_last_refresh_seconds"]; !ok {
		t.Error("maintainer last-refresh gauge missing")
	}
	if v := got["catapult_maintainer_patterns"]; v != float64(len(mt.Patterns())) {
		t.Errorf("maintainer patterns gauge = %v, want %d", v, len(mt.Patterns()))
	}
}

// TestServeModeMountsV1API assembles the handler set (every start, with
// or without the no-op -serve flag, builds this one) and drives the v1
// surface through the shared mux: the pattern panel and the API answer
// side by side, a refresh through POST /v1/tenants/{id}/refresh swaps the
// snapshot, /healthz reports the snapshot stats, and the scrape carries
// both the pipeline and the catapult_serve_* families.
func TestServeModeMountsV1API(t *testing.T) {
	db := dataset.AIDSLike(30, 3)
	reg := metrics.NewRegistry()
	srv, m, _, err := buildServer(context.Background(), db, testConfig(), reg, "")
	if err != nil {
		t.Fatal(err)
	}

	// Panel and API on one mux.
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != 200 {
		t.Fatalf("panel status = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/patterns", nil))
	if rec.Code != 200 {
		t.Fatalf("/v1/patterns status = %d: %s", rec.Code, rec.Body.String())
	}
	var panel catapult.ServePatternsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &panel); err != nil {
		t.Fatal(err)
	}
	if panel.Stats.Version != 1 || len(panel.Patterns) != len(m.Patterns()) {
		t.Errorf("panel = version %d with %d patterns, want version 1 with %d",
			panel.Stats.Version, len(panel.Patterns), len(m.Patterns()))
	}

	// A refresh batch through the API swaps the snapshot in place.
	var batch strings.Builder
	if err := catapult.WriteDB(&batch, dataset.AIDSLike(3, 11)); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST",
		"/v1/tenants/"+catapult.ServeDefaultTenant+"/refresh", strings.NewReader(batch.String())))
	if rec.Code != 200 {
		t.Fatalf("refresh status = %d: %s", rec.Code, rec.Body.String())
	}
	var ref catapult.ServeRefreshResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ref); err != nil {
		t.Fatal(err)
	}
	if ref.Stats.Version != 2 || ref.Stats.Graphs != 33 {
		t.Errorf("refresh landed as %+v, want version 2 over 33 graphs", ref.Stats)
	}
	if m.DB().Len() != 33 {
		t.Errorf("maintainer db = %d graphs after API refresh, want 33", m.DB().Len())
	}

	// /healthz reflects the swapped snapshot.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var h struct {
		Status string              `json:"status"`
		Serve  catapult.ServeStats `json:"serve"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("/healthz not JSON: %v", err)
	}
	if h.Status != "ok" || h.Serve.Version != 2 || h.Serve.Graphs != 33 {
		t.Errorf("/healthz = %+v, want ok at version 2 over 33 graphs", h)
	}

	// Autocompletion through the shared mux: a pattern's own text is a
	// partial that the pattern itself completes exactly.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/suggest?k=3",
		strings.NewReader(panel.Patterns[0].Text)))
	if rec.Code != 200 {
		t.Fatalf("/v1/suggest status = %d: %s", rec.Code, rec.Body.String())
	}
	var sug catapult.ServeSuggestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sug); err != nil {
		t.Fatal(err)
	}
	if sug.Stats.Version != 2 || len(sug.Suggestions) == 0 {
		t.Fatalf("suggest = version %d with %d suggestions, want version 2 with > 0",
			sug.Stats.Version, len(sug.Suggestions))
	}
	if top := sug.Suggestions[0]; !top.Contained || top.Distance != 0 || top.Text == "" {
		t.Errorf("top suggestion for an exact pattern partial = %+v, want contained at distance 0 with text", top)
	}

	// One registry carries the pipeline, maintainer and serving families.
	got := scrape(t, srv)
	if v := got[`catapult_serve_requests_total{endpoint="patterns",code="200"}`]; v != 1 {
		t.Errorf("serve request counter = %v, want 1", v)
	}
	if v := got[`catapult_serve_refreshes_total{tenant="default",outcome="ok"}`]; v != 1 {
		t.Errorf("serve refresh counter = %v, want 1", v)
	}
	if v := got["catapult_maintainer_refreshes_total"]; v != 1 {
		t.Errorf("maintainer refresh counter = %v, want 1", v)
	}
	if v := got[`catapult_stage_runs_total{stage="select"}`]; v < 1 {
		t.Errorf("select stage runs = %v, want >= 1", v)
	}
	if v := got["catapult_suggest_keystroke_seconds_count"]; v != 1 {
		t.Errorf("suggest keystroke histogram count = %v, want 1", v)
	}
}

// TestHealthzAndPprofMounted exercises the other two operational
// endpoints: /healthz reports the serving snapshot's stats.
func TestHealthzAndPprofMounted(t *testing.T) {
	db := dataset.AIDSLike(30, 1)
	reg := metrics.NewRegistry()
	srv, m, _, err := buildServer(context.Background(), db, testConfig(), reg, "")
	if err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("/healthz status = %d", rec.Code)
	}
	var h struct {
		Status string              `json:"status"`
		Serve  catapult.ServeStats `json:"serve"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("/healthz not JSON: %v", err)
	}
	if h.Status != "ok" || h.Serve.Patterns != len(m.Patterns()) {
		t.Errorf("/healthz = %+v, want ok with %d patterns", h, len(m.Patterns()))
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("/debug/pprof/ status = %d, body does not look like the pprof index", rec.Code)
	}
}

// TestPanelFollowsRefresh drives a refresh that adds graphs through
// POST /v1/tenants/default/refresh and checks that the panel shows the
// refreshed snapshot, not the pattern set the server started with: the
// index carries the new version and exactly Stats.Patterns cards, and
// each card's DOT is the refreshed /v1/patterns entry. The panel-side
// search, suggest and JSON endpoints that /v1 replaced answer 404.
func TestPanelFollowsRefresh(t *testing.T) {
	srv, _, _, err := buildServer(context.Background(), dataset.AIDSLike(30, 4), testConfig(), metrics.NewRegistry(), "")
	if err != nil {
		t.Fatal(err)
	}
	do := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}

	var batch strings.Builder
	if err := catapult.WriteDB(&batch, dataset.AIDSLike(30, 12)); err != nil {
		t.Fatal(err)
	}
	if rec := do("POST", "/v1/tenants/"+catapult.ServeDefaultTenant+"/refresh", batch.String()); rec.Code != 200 {
		t.Fatalf("refresh status = %d: %s", rec.Code, rec.Body.String())
	}
	var v1 catapult.ServePatternsResponse
	if err := json.Unmarshal(do("GET", "/v1/patterns", "").Body.Bytes(), &v1); err != nil {
		t.Fatal(err)
	}
	if v1.Stats.Version != 2 || v1.Stats.Graphs != 60 {
		t.Fatalf("/v1/patterns at %+v, want version 2 over 60 graphs", v1.Stats)
	}

	index := do("GET", "/", "").Body.String()
	if want := fmt.Sprintf("(%d patterns, version 2)", v1.Stats.Patterns); !strings.Contains(index, want) {
		t.Errorf("panel index does not show %q", want)
	}
	if cards := strings.Count(index, `class="card"`); cards != v1.Stats.Patterns {
		t.Errorf("panel shows %d cards, snapshot serves %d patterns", cards, v1.Stats.Patterns)
	}
	for i, p := range v1.Patterns {
		db, err := catapult.ReadDB(strings.NewReader(p.Text), "pattern")
		if err != nil || db.Len() != 1 {
			t.Fatalf("pattern %d text does not parse as one graph: %v", i, err)
		}
		var want strings.Builder
		if err := graph.WriteDOT(&want, db.Graph(0), fmt.Sprintf("pattern%d", i)); err != nil {
			t.Fatal(err)
		}
		if got := do("GET", fmt.Sprintf("/pattern/%d.dot", i), "").Body.String(); got != want.String() {
			t.Errorf("card %d is not the refreshed pattern:\n%s\nwant\n%s", i, got, want.String())
		}
	}

	for _, c := range []struct{ method, path string }{
		{"POST", "/api/search"}, {"POST", "/api/suggest"}, {"GET", "/api/patterns.json"},
	} {
		if rec := do(c.method, c.path, v1.Patterns[0].Text); rec.Code != 404 {
			t.Errorf("%s %s = %d, want 404", c.method, c.path, rec.Code)
		}
	}
}

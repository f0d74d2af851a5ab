package main

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// The testdata expositions are two /metrics scrapes of a real guiserve
// -demo -serve -state-dir -gamma 6 process: one right after it turned
// healthy, one after 3 suggest calls, 3 panel reads, 1 search and 1
// refresh of a 4-graph batch.
func loadExposition(t *testing.T, name string) exposition {
	t.Helper()
	f, err := os.Open("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e, err := parseExposition(f)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func near(got, want float64) bool { return math.Abs(got-want) <= 1e-6*math.Max(1, math.Abs(want)) }

func TestServerLayersFromCapturedExposition(t *testing.T) {
	before := loadExposition(t, "metrics_before.txt")
	after := loadExposition(t, "metrics_after.txt")
	window := after.minus(before)
	if got := window.sum("catapult_serve_requests_total", nil); got != 8 {
		t.Errorf("served requests in the window = %v, want 8", got)
	}
	if got := window.sum("catapult_serve_requests_total", map[string]string{"endpoint": "suggest", "code": "200"}); got != 3 {
		t.Errorf("suggest 200s = %v, want 3", got)
	}

	v := map[string]float64{}
	serverLayers(v, window, after, 1)
	want := map[string]float64{
		"serve.panel_ms":            1000 * 4.5286e-05 / 3,
		"serve.suggest_ms":          1000 * 0.001273517 / 3,
		"serve.search_ms":           1000 * 0.000626495,
		"serve.refresh_ms":          1000 * 0.518240378,
		"serve.shed":                0,
		"suggest.keystroke_ms":      1000 * 0.000549326 / 3,
		"suggest.suggestions_mean":  3,
		"maintain.refreshes":        1,
		"maintain.refresh_failures": 0,
		"store.persists":            1,
		"store.persist_ms":          1000 * (0.031217651 - 0.025158837),
		"treemine.mine_ms":          1000 * 0.021347679,
		"cluster.coarse_ms":         1000 * (0.029051195 - 0.021347679),
		"cluster.fine_ms":           1000 * 1.8370389980000001,
		"cluster.self_ms":           1000 * (1.866174775 - 0.029051195 - 1.8370389980000001),
		"csg.build_ms":              1000 * 0.03162063,
		"core.select_ms":            1000 * 0.665793844,
		"core.walks":                5880,
		"core.accept_ratio":         6.0 / 294,
		"mcs.calls":                 367,
		"simcache.hit_ratio":        6.0 / (6 + 367),
		"cover.hit_ratio":           841.0 / (841 + 1976),
	}
	for name, w := range want {
		if got, ok := v[name]; !ok || !near(got, w) {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
	// Every per-layer name serverLayers sets must be a declared metric.
	declared := map[string]bool{}
	for _, m := range perLayer {
		declared[m.Name] = true
	}
	for name := range v {
		if !declared[name] {
			t.Errorf("serverLayers sets undeclared metric %s", name)
		}
	}
}

func TestParseExpositionLabels(t *testing.T) {
	e, err := parseExposition(strings.NewReader(`# HELP x help
# TYPE x counter
x_total{b="2",a="with \"quote\", comma"} 5
x_total{a="plain",b="2"} 7 1700000000
y 1.5e-3
`))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.sum("x_total", map[string]string{"b": "2"}); got != 12 {
		t.Errorf("sum over b=2 = %v, want 12", got)
	}
	if got := e.sum("x_total", map[string]string{"a": `with "quote", comma`}); got != 5 {
		t.Errorf("escaped label match = %v, want 5", got)
	}
	if got := e.sum("y", nil); got != 0.0015 {
		t.Errorf("y = %v", got)
	}
	if _, err := parseExposition(strings.NewReader("z{a=\"open 1\n")); err == nil {
		t.Error("unterminated label value accepted")
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields:
	// utime (14) = 250 ticks, stime (15) = 50 ticks.
	line := "4242 (gui serve) (x)) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 50 0 0 20 0 9 0 123 456 789"
	got, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * time.Second; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	if cpu, err := procCPU(os.Getpid()); err != nil || cpu < 0 {
		t.Errorf("procCPU(self) = %v, %v", cpu, err)
	}
}

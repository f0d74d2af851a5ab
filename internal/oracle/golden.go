package oracle

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/csg"
	"repro/internal/graph"
)

// Run is the recorded output of one pipeline-level differential case.
// Floats are stored as math.Float64bits so a golden comparison is exact;
// fields a case does not produce stay empty.
type Run struct {
	Clusters       [][]int   `json:"clusters,omitempty"`
	EffectiveSizes []uint64  `json:"effective_sizes,omitempty"`
	CSGs           []CSG     `json:"csgs,omitempty"`
	Patterns       []Pattern `json:"patterns,omitempty"`
	Exhausted      bool      `json:"exhausted"`
	Iterations     int       `json:"iterations,omitempty"`
}

// CSG is a recorded cluster summary graph.
type CSG struct {
	Graph   string `json:"graph"`
	Members []int  `json:"members"`
}

// Pattern is a recorded selected pattern with its Eq-2 score breakdown.
type Pattern struct {
	Graph     string `json:"graph"`
	Score     uint64 `json:"score"`
	Ccov      uint64 `json:"ccov"`
	Lcov      uint64 `json:"lcov"`
	Div       uint64 `json:"div"`
	Cog       uint64 `json:"cog"`
	SourceCSG int    `json:"source_csg"`
}

// NewPattern records a selected pattern.
func NewPattern(g *graph.Graph, score, ccov, lcov, div, cog float64, sourceCSG int) Pattern {
	b := math.Float64bits
	return Pattern{g.String(), b(score), b(ccov), b(lcov), b(div), b(cog), sourceCSG}
}

// CSGs records cluster summary graphs.
func CSGs(cs []*csg.CSG) []CSG {
	out := make([]CSG, len(cs))
	for i, c := range cs {
		out[i] = CSG{c.G.String(), c.Members}
	}
	return out
}

// Bits records floats exactly.
func Bits(fs []float64) []uint64 {
	out := make([]uint64, len(fs))
	for i, f := range fs {
		out[i] = math.Float64bits(f)
	}
	return out
}

// Golden returns case name of the golden file at path — a JSON object
// from case name to Run — failing tb when the file or the case is missing.
func Golden(tb testing.TB, path, name string) Run {
	tb.Helper()
	var g map[string]Run
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &g)
	}
	if err != nil {
		tb.Fatalf("golden %s: %v", path, err)
	}
	want, ok := g[name]
	if !ok {
		tb.Fatalf("golden %s has no case %q", path, name)
	}
	return want
}

// CheckProcs runs produce at GOMAXPROCS 1, 4 and the process default and
// reports on tb every run whose output departs from want, with the first
// differing line of their indented JSON forms.
func CheckProcs(tb testing.TB, label string, want Run, produce func() Run) {
	tb.Helper()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	wb, _ := json.MarshalIndent(want, "", " ")
	wl := strings.Split(string(wb), "\n")
	for _, procs := range []int{1, 4, prev} {
		runtime.GOMAXPROCS(procs)
		gb, _ := json.MarshalIndent(produce(), "", " ")
		gl := strings.Split(string(gb), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
				tb.Errorf("%s at GOMAXPROCS %d: JSON line %d differs: got %q, want %q",
					label, procs, i+1, at(gl, i), at(wl, i))
				break
			}
		}
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return strings.TrimSpace(lines[i])
	}
	return "<end>"
}

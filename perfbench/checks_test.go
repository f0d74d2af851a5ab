package main

import (
	"context"
	"strings"
	"testing"

	catapult "repro"
	"repro/internal/dataset"
)

// smallBuild runs the real pipeline on a small dataset.
func smallBuild(t *testing.T) (*catapult.Result, catapult.Budget) {
	t.Helper()
	b := catapult.Budget{EtaMin: 3, EtaMax: 6, Gamma: 4}
	cfg := catapult.Config{
		Budget:     b,
		Clustering: catapult.ClusterConfig{Strategy: catapult.HybridMCCS, N: 20, MinSupport: 0.1},
		Seed:       7,
	}
	res, err := catapult.SelectCtx(context.Background(), dataset.AIDSLike(40, 7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exhausted || len(res.Patterns) < 2 {
		t.Fatalf("need a full set of at least 2 patterns to corrupt, got %d (exhausted %v)", len(res.Patterns), res.Exhausted)
	}
	return res, b
}

// withPatterns returns a copy of res whose pattern list is ps.
func withPatterns(res *catapult.Result, ps []*catapult.Pattern) *catapult.Result {
	c := *res
	c.Patterns = ps
	return &c
}

func TestCheckPatternsAcceptsRealBuild(t *testing.T) {
	res, b := smallBuild(t)
	if errs := checkPatterns(res, b); len(errs) != 0 {
		t.Fatalf("clean build flagged: %v", errs)
	}
}

func TestCheckPatternsCatchesCorruptedSets(t *testing.T) {
	res, b := smallBuild(t)
	clean := patternDigest(res.PatternGraphs())
	first := res.Patterns[0]
	replaced := func(g *catapult.Graph) []*catapult.Pattern {
		ps := append([]*catapult.Pattern(nil), res.Patterns...)
		p := *first
		p.Graph = g
		ps[0] = &p
		return ps
	}

	disconnected := first.Graph.Clone()
	disconnected.AddVertex("C")
	oversized := first.Graph.Clone()
	for oversized.NumEdges() <= b.EtaMax {
		v := oversized.AddVertex("C")
		oversized.MustAddEdge(0, v)
	}
	foreign := catapult.NewGraph(4, 3)
	for i := 0; i < 4; i++ {
		foreign.AddVertex("Xe")
	}
	foreign.MustAddEdge(0, 1)
	foreign.MustAddEdge(1, 2)
	foreign.MustAddEdge(2, 3)

	cases := []struct {
		name string
		ps   []*catapult.Pattern
		want string
	}{
		{"isomorphic duplicate", append(res.Patterns[:1:1], res.Patterns[:len(res.Patterns)-1]...), "isomorphic"},
		{"disconnected", replaced(disconnected), "disconnected"},
		{"oversized", replaced(oversized), "outside"},
		{"not from its CSG", replaced(foreign), "source CSG"},
		{"short without Exhausted", res.Patterns[:len(res.Patterns)-1], "without Exhausted"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := checkPatterns(withPatterns(res, tc.ps), b)
			found := false
			for _, err := range errs {
				found = found || strings.Contains(err.Error(), tc.want)
			}
			if !found {
				t.Fatalf("corruption not caught: want an error mentioning %q, got %v", tc.want, errs)
			}
			if got := patternDigest(withPatterns(res, tc.ps).PatternGraphs()); got == clean {
				t.Fatal("corrupted set has the clean digest")
			}
		})
	}
}

func TestDigestStoreRejectsChangedDigest(t *testing.T) {
	s := &digestStore{dir: t.TempDir()}
	if err := s.check("build-select-1000", "aaa"); err != nil {
		t.Fatal(err)
	}
	if err := s.check("build-select-1000", "aaa"); err != nil {
		t.Fatalf("same digest rejected: %v", err)
	}
	if err := s.check("build-select-1000", "bbb"); err == nil {
		t.Fatal("changed digest accepted")
	}
}

func TestTornResponsesCaught(t *testing.T) {
	suggestOK := `{"stats":{"version":3,"patterns":2,"graphs":9},"suggest":{"verified":true},` +
		`"suggestions":[{"pattern":1,"contained":true,"text":"t # 0\nv 0 C\n"}]}`
	var sr catapult.ServeSuggestResponse
	if err := checkSuggestResponse([]byte(suggestOK), &sr); err != nil {
		t.Fatalf("consistent suggest response rejected: %v", err)
	}
	var pr catapult.ServePatternsResponse
	var qr catapult.ServeSearchResponse
	cases := []struct {
		name  string
		check func() error
	}{
		{"suggest cut mid-body", func() error {
			return checkSuggestResponse([]byte(suggestOK[:len(suggestOK)/2]), &sr)
		}},
		{"suggest index past the snapshot", func() error {
			return checkSuggestResponse([]byte(strings.Replace(suggestOK, `"pattern":1`, `"pattern":2`, 1)), &sr)
		}},
		{"panel shorter than its stats", func() error {
			return checkPanelResponse([]byte(`{"stats":{"patterns":2},"patterns":[{"index":0,"text":"t # 0\nv 0 C\n"}]}`), &pr)
		}},
		{"search hit outside the snapshot", func() error {
			return checkSearchResponse([]byte(`{"stats":{"graphs":3},"matches":1,"graphs":[3]}`), &qr)
		}},
		{"search count disagrees with hits", func() error {
			return checkSearchResponse([]byte(`{"stats":{"graphs":3},"matches":2,"graphs":[0]}`), &qr)
		}},
		{"version went back", func() error { return versionCheck("search", 4, 5) }},
		{"refresh skipped a version", func() error {
			_, err := checkRefreshes(catapult.ServeStats{Version: 1, Graphs: 10},
				[]catapult.ServeStats{{Version: 2, Graphs: 15}, {Version: 4, Graphs: 20}}, 10)
			return err
		}},
		{"refresh lost a batch", func() error {
			_, err := checkRefreshes(catapult.ServeStats{Version: 1, Graphs: 10},
				[]catapult.ServeStats{{Version: 2, Graphs: 15}}, 10)
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.check(); err == nil {
			t.Errorf("%s: not caught", tc.name)
		}
	}
	final, err := checkRefreshes(catapult.ServeStats{Version: 1, Graphs: 10},
		[]catapult.ServeStats{{Version: 3, Graphs: 20}, {Version: 2, Graphs: 15}}, 10)
	if err != nil || final.Version != 3 {
		t.Fatalf("out-of-order acknowledgements of consecutive versions rejected: %v (final %+v)", err, final)
	}
}

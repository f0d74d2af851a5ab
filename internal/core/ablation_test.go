package core

import (
	"context"
	"testing"

	"repro/internal/canon"
	"repro/internal/graph"
)

// scoreWith is scoreWithCtx on a context that is never cancelled.
func (ctx *Context) scoreWith(p *graph.Graph, selected []*graph.Graph, opts Options) (score, ccov, lcov, div, cog float64) {
	score, ccov, lcov, div, cog, _ = ctx.scoreWithCtx(context.Background(), p, selected, opts)
	return score, ccov, lcov, div, cog
}

func TestScoreWithDisabledDiversity(t *testing.T) {
	db, csgs := testSetup()
	ctx := NewContext(db, csgs)
	p := pathGraph("C", "C", "C", "C")
	other := pathGraph("N", "C", "O", "S")
	full, _, _, _, _ := ctx.ScorePattern(p, []*graph.Graph{other})
	noDiv, _, _, div, _ := ctx.scoreWith(p, []*graph.Graph{other}, Options{DisableDiversity: true})
	if div != 1 {
		t.Errorf("disabled diversity should report div=1, got %v", div)
	}
	if noDiv <= 0 {
		t.Error("score should stay positive without diversity")
	}
	if full == noDiv {
		t.Error("diversity term had no effect on the full score")
	}
}

func TestScoreWithDisabledCog(t *testing.T) {
	db, csgs := testSetup()
	ctx := NewContext(db, csgs)
	p := pathGraph("C", "C", "C", "C")
	withCog, _, _, _, cog := ctx.scoreWith(p, nil, Options{})
	noCog, _, _, _, _ := ctx.scoreWith(p, nil, Options{DisableCognitiveLoad: true})
	if cog <= 0 {
		t.Fatalf("cog = %v", cog)
	}
	if !closeF(noCog, withCog*cog) {
		t.Errorf("noCog (%v) should equal withCog×cog (%v)", noCog, withCog*cog)
	}
}

func TestScoreWithMatchesScorePattern(t *testing.T) {
	db, csgs := testSetup()
	ctx := NewContext(db, csgs)
	p := pathGraph("C", "C", "C", "C")
	other := pathGraph("N", "C", "O")
	s1, c1, l1, d1, g1 := ctx.ScorePattern(p, []*graph.Graph{other})
	s2, c2, l2, d2, g2 := ctx.scoreWith(p, []*graph.Graph{other}, Options{})
	if !closeF(s1, s2) || c1 != c2 || l1 != l2 || d1 != d2 || g1 != g2 {
		t.Errorf("scoreWith with zero options diverges from ScorePattern: %v vs %v", s1, s2)
	}
}

func TestGenerateBFSCandidateDeterministic(t *testing.T) {
	db, csgs := testSetup()
	ctx := NewContext(db, csgs)
	a := ctx.GenerateBFSCandidate(csgs[0], 4)
	b := ctx.GenerateBFSCandidate(csgs[0], 4)
	if a == nil || b == nil {
		t.Fatal("BFS candidate generation failed")
	}
	if a.String() != b.String() {
		t.Error("BFS candidate generation is not deterministic")
	}
	if a.NumEdges() != 4 || !a.IsConnected() {
		t.Errorf("BFS candidate malformed: %v", a)
	}
	if ctx.GenerateBFSCandidate(csgs[0], 10000) != nil {
		t.Error("oversize BFS candidate should be nil")
	}
}

func TestSelectBFSAblationStillWorks(t *testing.T) {
	db, csgs := testSetup()
	ctx := NewContext(db, csgs)
	res, err := SelectCtx(context.Background(), ctx, Budget{EtaMin: 3, EtaMax: 5, Gamma: 4}, Options{Seed: 3, BFSCandidates: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("BFS ablation selected nothing")
	}
	for _, p := range res.Patterns {
		if !p.Graph.IsConnected() || p.Size() < 3 || p.Size() > 5 {
			t.Errorf("bad BFS-mode pattern: %v", p.Graph)
		}
	}
}

func TestSelectNoDivAblationAvoidsDuplicates(t *testing.T) {
	db, csgs := testSetup()
	ctx := NewContext(db, csgs)
	res, err := SelectCtx(context.Background(), ctx, Budget{EtaMin: 3, EtaMax: 5, Gamma: 6},
		Options{Seed: 5, DisableDiversity: true})
	if err != nil {
		t.Fatal(err)
	}
	// Without div in the score, the explicit dedup must still keep the set
	// free of isomorphic duplicates.
	for i := 0; i < len(res.Patterns); i++ {
		for j := i + 1; j < len(res.Patterns); j++ {
			a, b := res.Patterns[i].Graph, res.Patterns[j].Graph
			if a.Signature() == b.Signature() &&
				canon.Equal(a, b) {
				t.Errorf("duplicate patterns %d and %d under no-div ablation", i, j)
			}
		}
	}
}

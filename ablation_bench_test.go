package catapult_test

import (
	"context"
	"fmt"
	"testing"

	catapult "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/queryform"
)

// BenchmarkAblation quantifies the contribution of each design choice
// DESIGN.md calls out — the diversity term, the cognitive-load term, and
// the random-walk candidate generator (vs the greedy BFS of the DaVinci
// predecessor [40]) — by running the pipeline with each disabled and
// logging MP, μ, diversity and cognitive load of the resulting sets.
func BenchmarkAblation(b *testing.B) {
	db := dataset.AIDSLike(150, 11)
	queries := dataset.Queries(db, 40, 4, 20, 13)
	modes := []struct {
		name string
		opts core.Options
	}{
		{"full", core.Options{}},
		{"no-div", core.Options{DisableDiversity: true}},
		{"no-cog", core.Options{DisableCognitiveLoad: true}},
		{"bfs-davinci", core.Options{BFSCandidates: true}},
	}
	for i := 0; i < b.N; i++ {
		for _, mode := range modes {
			opts := mode.opts
			opts.Seed = 17
			res, err := catapult.SelectCtx(context.Background(), db, catapult.Config{
				Budget:     core.Budget{EtaMin: 3, EtaMax: 8, Gamma: 10},
				Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: 20, MinSupport: 0.1, MCSBudget: 5000},
				Selection:  opts,
				Seed:       17,
			})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				ps := res.PatternGraphs()
				m := queryform.Evaluate(queries, ps, false)
				b.Log(fmt.Sprintf("%-12s |P|=%2d MP=%5.1f%% avgMu=%5.1f%% div=%.2f cog=%.2f",
					mode.name, len(ps), m.MP, m.AvgMu*100,
					core.AvgDiversity(ps), core.AvgCognitiveLoad(ps)))
			}
		}
	}
}

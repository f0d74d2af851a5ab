package catapult_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	catapult "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/pipeline"
)

// Pipeline-level differential tests. Every matcher in the pipeline has one
// production path — frozen-CSR VF2 behind the coverage engine, frozen
// MCS/MCCS behind the similarity engine — and these tests pin full
// selections against testdata/differential_golden.json. The golden was
// recorded with every reference path switched on (map-graph matchers,
// sequential uncached scoring and similarity), and the production
// configuration reproduced it byte for byte before it was committed; see
// DESIGN.md, "Reference implementations". Kernel-level differentials
// compare each engine against internal/oracle live.

// goldenPath is the golden file, relative to this package's directory.
const goldenPath = "testdata/differential_golden.json"

// permutedCopy returns an isomorphic copy of g with vertices renumbered by
// a random permutation.
func permutedCopy(g *graph.Graph, rng *rand.Rand) *graph.Graph {
	vs := make([]graph.VertexID, g.NumVertices())
	for i := range vs {
		vs[i] = graph.VertexID(i)
	}
	rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	sub, _ := g.InducedSubgraph(vs)
	return sub
}

// redundantDB builds a database with isomorphic redundancy — each base
// molecule plus a permuted twin — the regime where budget-bounded searches
// are most order-sensitive, so any divergence in exploration order would
// change split decisions and surface here.
func redundantDB(seed int64) *graph.DB {
	base := dataset.AIDSLike(10, seed)
	rng := rand.New(rand.NewSource(seed ^ 0x7ca))
	var gs []*graph.Graph
	for _, g := range base.Graphs {
		gs = append(gs, g, permutedCopy(g, rng))
	}
	return graph.NewDB("frozen-diff", gs)
}

// redundantConfig is the facade configuration of the redundantDB cases; a
// tight MCS budget keeps the similarity searches order-sensitive.
func redundantConfig(seed int64, gamma int) catapult.Config {
	return catapult.Config{
		Budget: core.Budget{EtaMin: 3, EtaMax: 5, Gamma: gamma},
		Clustering: cluster.Config{
			Strategy:   cluster.HybridMCCS,
			N:          6,
			MinSupport: 0.2,
			MCSBudget:  1500,
		},
		Selection: core.Options{Walks: 6},
		Seed:      seed,
	}
}

// facadeRun records a facade result in the golden format.
func facadeRun(r *catapult.Result) oracle.Run {
	run := oracle.Run{
		Clusters:       r.Clusters,
		EffectiveSizes: oracle.Bits(r.EffectiveSizes),
		CSGs:           oracle.CSGs(r.CSGs),
		Exhausted:      r.Exhausted,
	}
	for _, p := range r.Patterns {
		run.Patterns = append(run.Patterns, oracle.NewPattern(p.Graph, p.Score, p.Ccov, p.Lcov, p.Div, p.Cog, p.SourceCSG))
	}
	return run
}

// checkGoldenSelect runs cfg on db at GOMAXPROCS {1, 4, default} and
// demands every run reproduce golden case name. It returns the last run,
// for counter assertions.
func checkGoldenSelect(t *testing.T, name string, db *graph.DB, cfg catapult.Config) *catapult.Result {
	t.Helper()
	var last *catapult.Result
	oracle.CheckProcs(t, name, oracle.Golden(t, goldenPath, name), func() oracle.Run {
		res, err := catapult.SelectCtx(context.Background(), db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		last = res
		return facadeRun(res)
	})
	return last
}

// TestDifferentialFrozenSelect pins full facade selections on the
// redundant databases of three seeds.
func TestDifferentialFrozenSelect(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		checkGoldenSelect(t, fmt.Sprintf("select/redundant/seed=%d/gamma=4", seed), redundantDB(seed), redundantConfig(seed, 4))
	}
}

// TestDifferentialFrozenNaiveEngines pins a second budget (γ = 3) on the
// seed-2 redundant database.
func TestDifferentialFrozenNaiveEngines(t *testing.T) {
	checkGoldenSelect(t, "select/redundant/seed=2/gamma=3", redundantDB(2), redundantConfig(2, 3))
}

// TestSelectEngineOnOffIdentical pins the staged configuration on AIDSLike(40)
// across three seeds, and checks the runs actually went through the
// coverage engine.
func TestSelectEngineOnOffIdentical(t *testing.T) {
	db := dataset.AIDSLike(40, 1)
	for _, seed := range []int64{7, 19, 42} {
		res := checkGoldenSelect(t, fmt.Sprintf("select/aids40/seed=%d", seed), db, catapult.Config{
			Budget:     core.Budget{EtaMin: 3, EtaMax: 6, Gamma: 8},
			Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: 10, MinSupport: 0.2},
			Seed:       seed,
		})
		if res.Counters[pipeline.CounterCoverMisses] == 0 {
			t.Errorf("seed %d: engine run reported no cover misses", seed)
		}
	}
}

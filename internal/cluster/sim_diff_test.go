package cluster_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	catapult "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/csg"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/pipeline"
)

// Differential tests: clustering through the simcache engine must
// reproduce, bit for bit, the clusterings, CSGs and full pipeline
// selections recorded in the module's testdata/differential_golden.json
// with the sequential, uncached similarity path — across seeds, strategies
// and worker counts. The engine is an exact accelerator, not an
// approximation; internal/simcache's own tests compare it against
// internal/oracle pair by pair.

// goldenPath is the golden file, relative to this package's directory.
const goldenPath = "../../testdata/differential_golden.json"

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
// molecule plus a permuted twin — so the engine's canonical sharing is
// actually exercised.
func redundantDB(seed int64) *graph.DB {
	base := dataset.AIDSLike(10, seed)
	rng := rand.New(rand.NewSource(seed ^ 0x7ca))
	var gs []*graph.Graph
	for _, g := range base.Graphs {
		gs = append(gs, g, permutedCopy(g, rng))
	}
	return graph.NewDB("diff", gs)
}

func members(cs []*cluster.Cluster) [][]int {
	out := make([][]int, len(cs))
	for i, c := range cs {
		out[i] = c.Members
	}
	return out
}

// TestDifferentialClusteringBitIdentical runs every fine-clustering
// strategy at GOMAXPROCS {1, 4, default} and demands the recorded
// clusters and CSGs.
func TestDifferentialClusteringBitIdentical(t *testing.T) {
	strategies := []cluster.Strategy{cluster.FineOnlyMCCS, cluster.HybridMCCS, cluster.HybridMCS}
	for seed := int64(1); seed <= 3; seed++ {
		db := redundantDB(seed)
		for _, st := range strategies {
			cfg := cluster.Config{
				Strategy:   st,
				N:          6,
				MinSupport: 0.2,
				MCSBudget:  1500,
				Seed:       seed,
				SeedSet:    true,
			}
			name := fmt.Sprintf("cluster/redundant/seed=%d/%v", seed, st)
			oracle.CheckProcs(t, name, oracle.Golden(t, goldenPath, name), func() oracle.Run {
				res, err := cluster.RunCtx(context.Background(), db, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ms := members(res.Clusters)
				csgs, err := csg.BuildAllCtx(context.Background(), db, ms)
				if err != nil {
					t.Fatal(err)
				}
				return oracle.Run{Clusters: ms, CSGs: oracle.CSGs(csgs)}
			})
		}
	}
}

// TestDifferentialSelectFacade runs the full pipeline through the public
// facade at GOMAXPROCS {1, 4, default} and demands the recorded patterns,
// score breakdowns, clusters, CSGs and effective sizes — and the counters
// prove the runs actually used the similarity cache.
func TestDifferentialSelectFacade(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		db := redundantDB(seed)
		cfg := catapult.Config{
			Budget: core.Budget{EtaMin: 3, EtaMax: 5, Gamma: 4},
			Clustering: cluster.Config{
				Strategy:   cluster.HybridMCCS,
				N:          6,
				MinSupport: 0.2,
				MCSBudget:  1500,
			},
			Selection: core.Options{Walks: 6},
			Seed:      seed,
		}
		name := fmt.Sprintf("select/redundant/seed=%d/gamma=4", seed)
		oracle.CheckProcs(t, name, oracle.Golden(t, goldenPath, name), func() oracle.Run {
			res, err := catapult.SelectCtx(context.Background(), db, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Counters[pipeline.CounterSimMisses] == 0 {
				t.Errorf("seed %d: engine run recorded no simcache misses", seed)
			}
			if res.Counters[pipeline.CounterSimHits]+res.Counters[pipeline.CounterClusterPairsPruned] == 0 {
				t.Errorf("seed %d: engine run shared no searches despite isomorphic twins: %v",
					seed, res.Counters)
			}
			run := oracle.Run{
				Clusters:       res.Clusters,
				EffectiveSizes: oracle.Bits(res.EffectiveSizes),
				CSGs:           oracle.CSGs(res.CSGs),
				Exhausted:      res.Exhausted,
			}
			for _, p := range res.Patterns {
				run.Patterns = append(run.Patterns, oracle.NewPattern(p.Graph, p.Score, p.Ccov, p.Lcov, p.Div, p.Cog, p.SourceCSG))
			}
			return run
		})
	}
}

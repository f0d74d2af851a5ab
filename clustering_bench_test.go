// Benchmarks and the CI regression gate for the similarity engine
// (internal/simcache): fine clustering's hot path is batches of pairwise
// MCCS similarities against split seeds. `make bench` runs the gate, which
// writes BENCH_cluster.json and fails when a fresh engine answering one
// BatchCtx per target is less than 1.5x faster than the sequential,
// uncached oracle loop over the same pairs on the seed dataset.
package catapult_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/mcs"
	"repro/internal/oracle"
	"repro/internal/pipeline"
	"repro/internal/simcache"
)

// clusteringFixture is the fine-clustering workload, built once per
// process: a molecule database with heavy isomorphic redundancy (each base
// molecule plus two vertex-permuted twins), the regime the engine's
// canonical sharing targets and the one real repositories exhibit.
type clusteringFixture struct {
	db *graph.DB
}

var (
	clusteringFix     *clusteringFixture
	clusteringFixOnce sync.Once
)

func clusteringSetup() *clusteringFixture {
	clusteringFixOnce.Do(func() {
		base := dataset.AIDSLike(8, 5)
		rng := rand.New(rand.NewSource(5))
		var gs []*graph.Graph
		for _, g := range base.Graphs {
			gs = append(gs, g)
			for c := 0; c < 2; c++ {
				vs := make([]graph.VertexID, g.NumVertices())
				for i := range vs {
					vs[i] = graph.VertexID(i)
				}
				rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
				p, _ := g.InducedSubgraph(vs)
				gs = append(gs, p)
			}
		}
		clusteringFix = &clusteringFixture{db: graph.NewDB("bench", gs)}
	})
	return clusteringFix
}

// clusteringMCSBudget bounds every similarity search of the fixture.
const clusteringMCSBudget = 4000

// BenchmarkClustering measures fine clustering of the seed dataset through
// the similarity engine.
func BenchmarkClustering(b *testing.B) {
	fix := clusteringSetup()
	cfg := cluster.Config{
		Strategy:  cluster.FineOnlyMCCS,
		N:         5,
		MCSBudget: clusteringMCSBudget,
		Seed:      5,
		SeedSet:   true,
	}
	rec := pipeline.NewRecorder()
	ctx := pipeline.WithTrace(context.Background(), rec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// RunCtx builds a fresh engine per call, so the measured cost
		// includes canonical labeling and engine setup.
		if _, err := cluster.RunCtx(ctx, fix.db, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(rec.Total(pipeline.CounterSimHits))/n, "hits/op")
	b.ReportMetric(float64(rec.Total(pipeline.CounterSimMisses))/n, "misses/op")
	b.ReportMetric(float64(rec.Total(pipeline.CounterClusterPairsPruned))/n, "pruned/op")
}

// benchSimilarityBatches computes the full pairwise similarity matrix of
// the fixture, one batch of every graph against each target: through a
// fresh simcache engine per op (so canonical labeling and engine setup are
// measured, and no cache survives across ops), or through
// oracle.Similarities, the sequential, uncached loop over the same pairs.
func benchSimilarityBatches(b *testing.B, useOracle bool) {
	fix := clusteringSetup()
	ctx := context.Background()
	members := make([]int, fix.db.Len())
	for i := range members {
		members[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var eng *simcache.Engine
		if !useOracle {
			eng = simcache.New(fix.db.Graphs, simcache.Options{Budget: clusteringMCSBudget})
		}
		for target := range members {
			var err error
			if useOracle {
				_, err = oracle.Similarities(ctx, fix.db.Graphs, mcs.KindMCCS, clusteringMCSBudget,
					simcache.DefaultMaxCanonVertices, members, target)
			} else {
				_, err = eng.BatchCtx(ctx, members, target)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSimilarityBatches compares the similarity engine against the
// sequential oracle loop on the gate workload.
func BenchmarkSimilarityBatches(b *testing.B) {
	b.Run("engine", func(b *testing.B) { benchSimilarityBatches(b, false) })
	b.Run("oracle", func(b *testing.B) { benchSimilarityBatches(b, true) })
}

// TestClusteringBenchGate is the regression gate behind `make
// bench-gate-cluster`: it measures both sides of BenchmarkSimilarityBatches
// with testing.Benchmark, writes BENCH_cluster.json, and fails when the
// engine is less than 1.5x faster than the oracle loop. Opt-in via
// BENCH_GATE_CLUSTER=1 so regular `go test ./...` stays fast.
func TestClusteringBenchGate(t *testing.T) {
	if os.Getenv("BENCH_GATE_CLUSTER") == "" {
		t.Skip("set BENCH_GATE_CLUSTER=1 to run the clustering benchmark gate")
	}
	engine := testing.Benchmark(func(b *testing.B) { benchSimilarityBatches(b, false) })
	reference := testing.Benchmark(func(b *testing.B) { benchSimilarityBatches(b, true) })

	engineNs := float64(engine.NsPerOp())
	oracleNs := float64(reference.NsPerOp())
	report := struct {
		EngineNsPerOp float64 `json:"engine_ns_op"`
		OracleNsPerOp float64 `json:"oracle_ns_op"`
		Speedup       float64 `json:"speedup"`
	}{engineNs, oracleNs, oracleNs / engineNs}

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile("BENCH_cluster.json", buf, 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("clustering gate: engine %.0f ns/op, oracle %.0f ns/op, speedup %.2fx\n",
		engineNs, oracleNs, report.Speedup)

	const minSpeedup = 1.5
	if report.Speedup < minSpeedup {
		t.Fatalf("simcache speedup %.2fx below the %.1fx gate (engine %.0f ns/op, oracle %.0f ns/op)",
			report.Speedup, minSpeedup, engineNs, oracleNs)
	}
}

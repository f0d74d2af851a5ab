// Benchmarks and the CI regression gate for the frozen-graph matcher stack
// (graph.Frozen + internal/subiso + internal/mcs): VF2 containment and
// fine-clustering similarity on the immutable CSR form vs the map-graph
// reference implementations in internal/oracle. `make bench-gate-graph`
// runs the gate, which writes BENCH_graph.json and fails when frozen VF2
// is less than 1.5x faster than oracle.Contains on the seed workload.
package catapult_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/mcs"
	"repro/internal/oracle"
	"repro/internal/subiso"
)

// graphFixture is the matcher workload, built once per process: molecule
// hosts with connected-subgraph patterns (half embedded, half from other
// hosts so both hit and miss searches are measured), plus graph pairs for
// the similarity benchmark. Hosts are frozen up front, as the pipeline
// freezes its database once.
type graphFixture struct {
	hosts    []*graph.Graph
	patterns []*graph.Graph
	pairs    [][2]*graph.Graph
}

var (
	graphFix     *graphFixture
	graphFixOnce sync.Once
)

func graphSetup() *graphFixture {
	graphFixOnce.Do(func() {
		db := dataset.AIDSLike(24, 7)
		rng := rand.New(rand.NewSource(7))
		fix := &graphFixture{hosts: db.Graphs}
		for i := 0; i < 16; i++ {
			src := db.Graph((i * 5) % db.Len())
			p := graph.RandomConnectedSubgraph(src, 4+rng.Intn(4), rng)
			if p != nil {
				fix.patterns = append(fix.patterns, p)
			}
		}
		for i := 0; i+1 < db.Len(); i += 2 {
			fix.pairs = append(fix.pairs, [2]*graph.Graph{db.Graph(i), db.Graph(i + 1)})
		}
		for _, h := range fix.hosts {
			h.Freeze()
		}
		graphFix = fix
	})
	return graphFix
}

func benchVF2(b *testing.B, legacy bool) {
	fix := graphSetup()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, h := range fix.hosts {
			for _, p := range fix.patterns {
				if legacy {
					oracle.Contains(h, p)
				} else if _, err := subiso.ContainsCtx(ctx, h, p); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func benchSimilarity(b *testing.B, legacy bool) {
	fix := graphSetup()
	ctx := context.Background()
	const budget = 4000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pr := range fix.pairs {
			var err error
			if legacy {
				_, err = oracle.SimilarityCtx(ctx, mcs.KindMCCS, pr[0], pr[1], budget)
			} else {
				_, err = mcs.SimilarityMCCSCtx(ctx, pr[0], pr[1], budget)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkVF2 compares frozen-CSR VF2 containment against the map-graph
// oracle.Contains on the seed workload.
func BenchmarkVF2(b *testing.B) {
	b.Run("frozen", func(b *testing.B) { benchVF2(b, false) })
	b.Run("legacy", func(b *testing.B) { benchVF2(b, true) })
}

// BenchmarkSimilarityMCCS compares the frozen MCCS searcher against the
// map-graph oracle search on database graph pairs.
func BenchmarkSimilarityMCCS(b *testing.B) {
	b.Run("frozen", func(b *testing.B) { benchSimilarity(b, false) })
	b.Run("legacy", func(b *testing.B) { benchSimilarity(b, true) })
}

// TestGraphBenchGate is the regression gate behind `make bench-gate-graph`:
// it measures frozen vs the map-graph oracle for VF2 containment and MCCS
// similarity with testing.Benchmark, writes BENCH_graph.json, and fails
// when the frozen VF2 path is less than 1.5x faster. The similarity speedup is
// recorded but not gated (the frozen searcher's win there is mostly
// allocation behavior, which is workload-dependent). Opt-in via
// BENCH_GATE_GRAPH=1 so regular `go test ./...` stays fast.
func TestGraphBenchGate(t *testing.T) {
	if os.Getenv("BENCH_GATE_GRAPH") == "" {
		t.Skip("set BENCH_GATE_GRAPH=1 to run the graph benchmark gate")
	}
	vf2Frozen := testing.Benchmark(func(b *testing.B) { benchVF2(b, false) })
	vf2Legacy := testing.Benchmark(func(b *testing.B) { benchVF2(b, true) })
	simFrozen := testing.Benchmark(func(b *testing.B) { benchSimilarity(b, false) })
	simLegacy := testing.Benchmark(func(b *testing.B) { benchSimilarity(b, true) })

	report := struct {
		VF2FrozenNsPerOp float64 `json:"vf2_frozen_ns_op"`
		VF2LegacyNsPerOp float64 `json:"vf2_legacy_ns_op"`
		VF2Speedup       float64 `json:"vf2_speedup"`
		SimFrozenNsPerOp float64 `json:"sim_frozen_ns_op"`
		SimLegacyNsPerOp float64 `json:"sim_legacy_ns_op"`
		SimSpeedup       float64 `json:"sim_speedup"`
	}{
		float64(vf2Frozen.NsPerOp()), float64(vf2Legacy.NsPerOp()),
		float64(vf2Legacy.NsPerOp()) / float64(vf2Frozen.NsPerOp()),
		float64(simFrozen.NsPerOp()), float64(simLegacy.NsPerOp()),
		float64(simLegacy.NsPerOp()) / float64(simFrozen.NsPerOp()),
	}

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile("BENCH_graph.json", buf, 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("graph gate: VF2 frozen %.0f ns/op, legacy %.0f ns/op, speedup %.2fx; MCCS speedup %.2fx\n",
		report.VF2FrozenNsPerOp, report.VF2LegacyNsPerOp, report.VF2Speedup, report.SimSpeedup)

	const minSpeedup = 1.5
	if report.VF2Speedup < minSpeedup {
		t.Fatalf("frozen VF2 speedup %.2fx below the %.1fx gate (frozen %.0f ns/op, legacy %.0f ns/op)",
			report.VF2Speedup, minSpeedup, report.VF2FrozenNsPerOp, report.VF2LegacyNsPerOp)
	}
}

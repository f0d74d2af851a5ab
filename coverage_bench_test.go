// Benchmarks and the CI regression gate for the coverage engine
// (internal/cover): the scoring hot path — repeated CCov / UpdateWeights
// containment over CSGs across multiplicative-weight iterations — through
// the engine-backed core.Context vs the same loop over the sequential
// per-CSG verdicts of internal/oracle. `make bench` runs the gate, which
// writes BENCH_cover.json and fails when the engine path is slower than
// the oracle loop on the seed dataset.
package catapult_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/csg"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/oracle"
)

// coverageFixture is the seed-dataset scoring workload, built once per
// process: a 120-graph AIDS analog chunked into 12 clusters with CSGs, and
// a pool of candidate-sized patterns drawn from the data graphs.
type coverageFixture struct {
	db       *graph.DB
	csgs     []*csg.CSG
	patterns []*graph.Graph
}

var (
	coverageFix     *coverageFixture
	coverageFixOnce sync.Once
)

func coverageSetup() *coverageFixture {
	coverageFixOnce.Do(func() {
		db := dataset.AIDSLike(120, 3)
		var clusters [][]int
		for i := 0; i < db.Len(); i += 10 {
			members := make([]int, 10)
			for j := range members {
				members[j] = i + j
			}
			clusters = append(clusters, members)
		}
		rng := rand.New(rand.NewSource(3))
		var patterns []*graph.Graph
		for len(patterns) < 12 {
			g := db.Graph(rng.Intn(db.Len()))
			if p := graph.RandomConnectedSubgraph(g, 3+rng.Intn(4), rng); p != nil {
				patterns = append(patterns, p)
			}
		}
		csgs, err := csg.BuildAllCtx(context.Background(), db, clusters)
		if err != nil {
			panic(err)
		}
		coverageFix = &coverageFixture{db: db, csgs: csgs, patterns: patterns}
	})
	return coverageFix
}

// scoringWorkload mimics the selection loop's use of coverage: every
// iteration re-scores the whole candidate pool against the CSGs, then
// applies a multiplicative-weight update for one winner. Iterations ≥ 2
// are pure cache hits.
func scoringWorkload(sc *core.Context, patterns []*graph.Graph, iters int) {
	for it := 0; it < iters; it++ {
		for _, p := range patterns {
			_ = sc.CCov(p)
		}
		sc.UpdateWeights(patterns[it%len(patterns)])
	}
}

// oracleScoringWorkload is scoringWorkload over oracle.Verdicts: the same
// hosts, the same initial cluster weights |Ci|/|D| and the same halving
// update, with every containment decided by a fresh sequential VF2 search.
// It returns the sum of all CCov scores, so no score goes unused.
func oracleScoringWorkload(fix *coverageFixture, iters int) float64 {
	hosts := make([]*graph.Graph, len(fix.csgs))
	cw := make([]float64, len(fix.csgs))
	for i, c := range fix.csgs {
		hosts[i] = c.G
		cw[i] = float64(len(c.Members)) / float64(fix.db.Len())
	}
	total := 0.0
	for it := 0; it < iters; it++ {
		for _, p := range fix.patterns {
			for i, ok := range oracle.Verdicts(hosts, p) {
				if ok && cw[i] > 0 {
					total += cw[i]
				}
			}
		}
		for i, ok := range oracle.Verdicts(hosts, fix.patterns[it%len(fix.patterns)]) {
			if ok {
				cw[i] *= 0.5
			}
		}
	}
	return total
}

const coverageIters = 6

func benchCoverage(b *testing.B, useOracle bool) {
	fix := coverageSetup()
	b.ResetTimer()
	var last *core.Context
	for i := 0; i < b.N; i++ {
		if useOracle {
			oracleScoringWorkload(fix, coverageIters)
			continue
		}
		// A fresh context per op: the measured cost includes engine
		// construction (feature index + host keys), so the speedup is not
		// an artifact of cross-iteration cache reuse.
		sc := core.NewContext(fix.db, fix.csgs)
		scoringWorkload(sc, fix.patterns, coverageIters)
		last = sc
	}
	b.StopTimer()
	if last != nil {
		s := last.CoverStats()
		b.ReportMetric(float64(s.Hits), "hits/op")
		b.ReportMetric(float64(s.Misses), "misses/op")
		b.ReportMetric(float64(s.Pruned), "pruned/op")
		b.ReportMetric(float64(s.VF2Calls), "vf2/op")
	}
}

// BenchmarkCoverage compares the scoring hot path with the coverage engine
// against the sequential oracle VF2 loop on the seed dataset.
func BenchmarkCoverage(b *testing.B) {
	b.Run("engine", func(b *testing.B) { benchCoverage(b, false) })
	b.Run("oracle", func(b *testing.B) { benchCoverage(b, true) })
}

// TestCoverageBenchGate is the regression gate behind `make bench`: it
// measures both paths with testing.Benchmark, writes BENCH_cover.json, and
// fails when the engine path is slower than the oracle loop. Opt-in via
// BENCH_GATE=1 so regular `go test ./...` stays fast.
func TestCoverageBenchGate(t *testing.T) {
	if os.Getenv("BENCH_GATE") == "" {
		t.Skip("set BENCH_GATE=1 to run the coverage benchmark gate")
	}
	engine := testing.Benchmark(func(b *testing.B) { benchCoverage(b, false) })
	reference := testing.Benchmark(func(b *testing.B) { benchCoverage(b, true) })

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
	if err := os.WriteFile("BENCH_cover.json", buf, 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("coverage gate: engine %.0f ns/op, oracle %.0f ns/op, speedup %.2fx\n",
		engineNs, oracleNs, report.Speedup)

	if engineNs > oracleNs {
		t.Fatalf("coverage engine is slower than the oracle loop: %.0f ns/op vs %.0f ns/op",
			engineNs, oracleNs)
	}
}

package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/csg"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/oracle"
)

// Differential property tests: every scoring quantity computed through the
// coverage engine must be byte-identical to the sequential per-CSG
// verdicts of internal/oracle — the engine is an exact accelerator, not an
// approximation. Randomized databases, clusterings and patterns; failures
// print the offending seed.

// goldenPath is the module's golden file, relative to this package.
const goldenPath = "../../testdata/differential_golden.json"

// diffSetup builds a randomized database, a random chunked clustering and
// its engine-backed scoring context.
func diffSetup(seed int64) (*graph.DB, []*csg.CSG, *Context, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	db := dataset.AIDSLike(24+rng.Intn(16), seed)
	var clusters [][]int
	for i := 0; i < db.Len(); {
		n := 3 + rng.Intn(6)
		if i+n > db.Len() {
			n = db.Len() - i
		}
		members := make([]int, n)
		for j := range members {
			members[j] = i + j
		}
		clusters = append(clusters, members)
		i += n
	}
	csgs, err := csg.BuildAllCtx(context.Background(), db, clusters)
	if err != nil {
		panic(err)
	}
	return db, csgs, NewContext(db, csgs), rng
}

// hostsOf returns the CSG summary graphs, the engine's hosts.
func hostsOf(csgs []*csg.CSG) []*graph.Graph {
	hosts := make([]*graph.Graph, len(csgs))
	for i, c := range csgs {
		hosts[i] = c.G
	}
	return hosts
}

// oracleCCov is ccov over oracle verdicts: the weights of the live CSGs
// containing p, summed in ascending CSG order.
func oracleCCov(hosts []*graph.Graph, cw []float64, p *graph.Graph) float64 {
	total := 0.0
	for i, ok := range oracle.Verdicts(hosts, p) {
		if ok && cw[i] > 0 {
			total += cw[i]
		}
	}
	return total
}

// diffPatterns draws patterns that are subgraphs of some data graph plus
// label-scrambled variants that usually are not.
func diffPatterns(db *graph.DB, n int, rng *rand.Rand) []*graph.Graph {
	labels := []string{"C", "N", "O", "S", "Cl"}
	var out []*graph.Graph
	for len(out) < n {
		g := db.Graph(rng.Intn(db.Len()))
		p := graph.RandomConnectedSubgraph(g, 3+rng.Intn(4), rng)
		if p == nil {
			continue
		}
		out = append(out, p)
		if len(out) < n {
			q := p.Clone()
			q.SetLabel(graph.VertexID(rng.Intn(q.NumVertices())), labels[rng.Intn(len(labels))])
			out = append(out, q)
		}
	}
	return out
}

func TestDifferentialCCov(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		db, csgs, engCtx, rng := diffSetup(seed)
		hosts := hostsOf(csgs)
		for _, p := range diffPatterns(db, 30, rng) {
			if a, b := engCtx.CCov(p), oracleCCov(hosts, engCtx.cw, p); a != b {
				t.Errorf("seed %d: engine CCov = %v, oracle = %v for %v", seed, a, b, p)
			}
		}
	}
}

func TestDifferentialUpdateWeights(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		db, csgs, engCtx, rng := diffSetup(seed)
		hosts := hostsOf(csgs)
		cw := append([]float64(nil), engCtx.cw...)
		for _, p := range diffPatterns(db, 10, rng) {
			engCtx.UpdateWeights(p)
			for i, ok := range oracle.Verdicts(hosts, p) {
				if ok && cw[i] > 0 {
					cw[i] *= 0.5
				}
			}
			for i := range csgs {
				if a, b := engCtx.ClusterWeight(i), cw[i]; a != b {
					t.Fatalf("seed %d: cluster %d weight diverged: engine %v, oracle %v",
						seed, i, a, b)
				}
			}
		}
	}
}

func TestDifferentialScovLcov(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		db, _, _, rng := diffSetup(seed)
		patterns := diffPatterns(db, 8, rng)

		got, err := ScovCtx(context.Background(), db, patterns)
		if err != nil {
			t.Fatal(err)
		}
		// Graph-major oracle scan, exactly the pre-engine implementation.
		covered := bitset.New(db.Len())
		for gi, g := range db.Graphs {
			for _, p := range patterns {
				if oracle.Contains(g, p) {
					covered.Add(gi)
					break
				}
			}
		}
		if want := float64(covered.Count()) / float64(db.Len()); got != want {
			t.Errorf("seed %d: engine Scov = %v, oracle = %v", seed, got, want)
		}

		gotL, err := LcovCtx(context.Background(), db, patterns)
		if err != nil {
			t.Fatal(err)
		}
		if wantL := Lcov(db, patterns); gotL != wantL {
			t.Errorf("seed %d: LcovCtx = %v, Lcov = %v", seed, gotL, wantL)
		}
	}
}

func TestDifferentialQueryLogFrequency(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		db, _, engCtx, rng := diffSetup(seed)
		log := diffPatterns(db, 12, rng) // stand-in logged queries
		for _, p := range diffPatterns(db, 10, rng) {
			a, err := engCtx.queryLogFrequencyCtx(context.Background(), p, log)
			if err != nil {
				t.Fatal(err)
			}
			if b := oracleQueryLogFrequency(p, log); a != b {
				t.Errorf("seed %d: engine qfreq = %v, oracle = %v for %v", seed, a, b, p)
			}
		}
	}
}

// oracleQueryLogFrequency is the fraction of logged queries containing p,
// by oracle verdicts.
func oracleQueryLogFrequency(p *graph.Graph, log []*graph.Graph) float64 {
	hits := 0
	for _, ok := range oracle.Verdicts(log, p) {
		if ok {
			hits++
		}
	}
	return float64(hits) / float64(len(log))
}

// TestDifferentialSelect runs the full greedy selection through the
// engine at GOMAXPROCS {1, 4, default} and demands the pattern sets, score
// breakdowns and termination behavior recorded in the golden file with the
// sequential oracle scoring path; the counters prove every run exercised
// the cache.
func TestDifferentialSelect(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		name := fmt.Sprintf("core/diff/seed=%d", seed)
		oracle.CheckProcs(t, name, oracle.Golden(t, goldenPath, name), func() oracle.Run {
			db, _, engCtx, _ := diffSetup(seed)
			b := Budget{EtaMin: 3, EtaMax: 5, Gamma: 6}
			opts := Options{Walks: 8, Seed: seed, SeedSet: true,
				QueryLog: diffPatterns(db, 6, rand.New(rand.NewSource(seed^0x5eed)))}
			r, err := SelectCtx(context.Background(), engCtx, b, opts)
			if err != nil {
				t.Fatal(err)
			}
			if s := engCtx.CoverStats(); s.Hits == 0 || s.Misses == 0 {
				t.Errorf("seed %d: engine run had no cache activity: %+v", seed, s)
			}
			run := oracle.Run{Exhausted: r.Exhausted, Iterations: r.Iterations}
			for _, p := range r.Patterns {
				run.Patterns = append(run.Patterns, oracle.NewPattern(p.Graph, p.Score, p.Ccov, p.Lcov, p.Div, p.Cog, p.SourceCSG))
			}
			return run
		})
	}
}

// TestScovLcovCtxCancelled is the regression test for the PR-1 gap: Scov
// and Lcov used to ignore context entirely; their Ctx variants must return
// ctx.Err() when cancelled.
func TestScovLcovCtxCancelled(t *testing.T) {
	db, _, _, rng := diffSetup(1)
	patterns := diffPatterns(db, 4, rng)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ScovCtx(ctx, db, patterns); !errors.Is(err, context.Canceled) {
		t.Errorf("ScovCtx err = %v, want context.Canceled", err)
	}
	if _, err := LcovCtx(ctx, db, patterns); !errors.Is(err, context.Canceled) {
		t.Errorf("LcovCtx err = %v, want context.Canceled", err)
	}
	// The uncancellable wrappers still work and agree with each other.
	if v := Scov(db, patterns); v < 0 || v > 1 {
		t.Errorf("Scov = %v, want within [0, 1]", v)
	}
	if v := Lcov(db, patterns); v < 0 || v > 1 {
		t.Errorf("Lcov = %v, want within [0, 1]", v)
	}
}

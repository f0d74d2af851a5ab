package subiso_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/subiso"
)

// TestDifferentialContainsOracle checks the frozen production matcher
// against oracle.Contains, the map-graph VF2 of subiso.FindOne, on random
// (host, pattern) pairs: embedded subgraphs, which must be found, and
// random label soups, which mostly must not.
func TestDifferentialContainsOracle(t *testing.T) {
	labels := []string{"C", "N", "O", "S"}
	rng := rand.New(rand.NewSource(43))
	random := func(n, m int) *graph.Graph {
		g := graph.New(n, m)
		for i := 0; i < n; i++ {
			g.AddVertex(labels[rng.Intn(len(labels))])
		}
		for tries := 0; g.NumEdges() < m && tries < 8*m; tries++ {
			u, v := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
		return g
	}
	for iter := 0; iter < 300; iter++ {
		host := random(4+rng.Intn(10), 3+rng.Intn(14))
		pat := graph.RandomConnectedSubgraph(host, 1+rng.Intn(4), rng)
		if pat == nil || rng.Intn(2) == 0 {
			pat = random(2+rng.Intn(5), 1+rng.Intn(6))
		}
		want := oracle.Contains(host, pat)
		if got := subiso.Contains(host, pat); got != want {
			t.Fatalf("iter %d: Contains = %v, oracle %v\nhost=%v\npat=%v", iter, got, want, host, pat)
		}
		if got, err := subiso.ContainsCtx(context.Background(), host, pat); err != nil || got != want {
			t.Fatalf("iter %d: ContainsCtx = (%v, %v), oracle %v", iter, got, err, want)
		}
	}
}

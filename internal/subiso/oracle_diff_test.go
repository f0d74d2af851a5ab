package subiso_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/subiso"
)

// randomPair draws a (host, pattern) pair over labels: half the patterns
// are connected subgraphs of the host, which must be found, the rest
// random label soups, which mostly must not.
func randomPair(rng *rand.Rand, labels []string) (host, pat *graph.Graph) {
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
	host = random(4+rng.Intn(10), 3+rng.Intn(14))
	pat = graph.RandomConnectedSubgraph(host, 1+rng.Intn(4), rng)
	if pat == nil || rng.Intn(2) == 0 {
		pat = random(2+rng.Intn(5), 1+rng.Intn(6))
	}
	return host, pat
}

// TestDifferentialContainsOracle checks the frozen production matcher
// against oracle.Contains, the map-graph reference VF2, on random
// (host, pattern) pairs.
func TestDifferentialContainsOracle(t *testing.T) {
	labels := []string{"C", "N", "O", "S"}
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 300; iter++ {
		host, pat := randomPair(rng, labels)
		want := oracle.Contains(host, pat)
		if got := subiso.Contains(host, pat); got != want {
			t.Fatalf("iter %d: Contains = %v, oracle %v\nhost=%v\npat=%v", iter, got, want, host, pat)
		}
		if got, err := subiso.ContainsCtx(context.Background(), host, pat); err != nil || got != want {
			t.Fatalf("iter %d: ContainsCtx = (%v, %v), oracle %v", iter, got, err, want)
		}
	}
}

// TestDifferentialFindAllOracle checks production embedding enumeration
// (FindAll/FindOne on the frozen matcher) against the oracle's map-graph
// enumeration: identical mappings in identical order, under solution caps
// and node budgets. Two-label hosts keep many automorphic embeddings in
// play, so the caps and budgets cut enumeration mid-tree.
func TestDifferentialFindAllOracle(t *testing.T) {
	for _, labels := range [][]string{{"C", "N", "O", "S"}, {"C", "O"}} {
		rng := rand.New(rand.NewSource(44))
		for iter := 0; iter < 200; iter++ {
			host, pat := randomPair(rng, labels)
			for _, maxSol := range []int{0, 1, 3} {
				for _, maxNodes := range []int{0, 4, 25} {
					want := oracle.FindAll(host, pat, maxSol, maxNodes)
					got := subiso.FindAll(host, pat, subiso.Options{MaxSolutions: maxSol, MaxNodes: maxNodes})
					if len(got) != len(want) {
						t.Fatalf("labels %v iter %d (maxSol %d, maxNodes %d): %d embeddings, oracle %d\nhost=%v\npat=%v",
							labels, iter, maxSol, maxNodes, len(got), len(want), host, pat)
					}
					for i := range want {
						if !reflect.DeepEqual([]graph.VertexID(got[i]), want[i]) {
							t.Fatalf("labels %v iter %d (maxSol %d, maxNodes %d): embedding %d = %v, oracle %v",
								labels, iter, maxSol, maxNodes, i, got[i], want[i])
						}
					}
				}
			}
			one, want := subiso.FindOne(host, pat), oracle.FindAll(host, pat, 1, 0)
			if (one == nil) != (len(want) == 0) || (one != nil && !reflect.DeepEqual([]graph.VertexID(one), want[0])) {
				t.Fatalf("labels %v iter %d: FindOne = %v, oracle %v", labels, iter, one, want)
			}
		}
	}
}

package subiso

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/raceflag"
)

// randomGraph builds a random labeled graph for differential testing.
func randomGraph(rng *rand.Rand, n, m int, labels []string) *graph.Graph {
	g := graph.New(n, m)
	for i := 0; i < n; i++ {
		g.AddVertex(labels[rng.Intn(len(labels))])
	}
	for tries := 0; g.NumEdges() < m && tries < 8*m; tries++ {
		u := graph.VertexID(rng.Intn(n))
		v := graph.VertexID(rng.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

// TestFrozenMatchesLegacy cross-checks the frozen matcher against the
// map-graph matcher behind FindOne on random (host, pattern) pairs:
// identical answers for Contains, and identical (contained, definitive)
// pairs for ContainsBudget at tight budgets — the latter only holds
// because the two matchers expand the exact same search tree in the same
// order.
func TestFrozenMatchesLegacy(t *testing.T) {
	labels := []string{"C", "N", "O", "S"}
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		host := randomGraph(rng, 4+rng.Intn(10), 3+rng.Intn(14), labels)
		var pat *graph.Graph
		if rng.Intn(2) == 0 {
			pat = graph.RandomConnectedSubgraph(host, 1+rng.Intn(4), rng)
		}
		if pat == nil {
			pat = randomGraph(rng, 2+rng.Intn(5), 1+rng.Intn(6), labels)
		}

		legacy := func() bool {
			if quickReject(host, pat) {
				return false
			}
			s := newState(host, pat, Options{MaxSolutions: 1})
			s.search(0)
			return len(s.results) > 0
		}()
		if got := Contains(host, pat); got != legacy {
			t.Fatalf("iter %d: frozen Contains=%v legacy=%v\nhost=%v\npat=%v",
				iter, got, legacy, host, pat)
		}
		if got, err := ContainsCtx(context.Background(), host, pat); err != nil || got != legacy {
			t.Fatalf("iter %d: frozen ContainsCtx=(%v,%v) legacy=%v", iter, got, err, legacy)
		}

		for _, budget := range []int{1, 5, 50, 100000} {
			wantC, wantD := func() (bool, bool) {
				if quickReject(host, pat) {
					return false, true
				}
				s := newState(host, pat, Options{MaxSolutions: 1, MaxNodes: budget})
				s.search(0)
				if len(s.results) > 0 {
					return true, true
				}
				return false, !s.stopped || s.nodes < budget
			}()
			gotC, gotD := ContainsBudget(host, pat, budget)
			if gotC != wantC || gotD != wantD {
				t.Fatalf("iter %d budget %d: frozen=(%v,%v) legacy=(%v,%v)",
					iter, budget, gotC, gotD, wantC, wantD)
			}
		}
	}
}

// TestContainsCtxPollsOnEntry: a search that would finish well within
// ctxCheckMask nodes still answers ctx.Err() when its context is already
// done, so a verification started after its deadline never reports a
// verdict.
func TestContainsCtxPollsOnEntry(t *testing.T) {
	host := randomGraph(rand.New(rand.NewSource(3)), 6, 8, []string{"C"})
	pat := graph.New(1, 0)
	pat.AddVertex("C")
	if ok, err := ContainsCtx(context.Background(), host, pat); !ok || err != nil {
		t.Fatalf("live context: ContainsCtx = (%v, %v), want (true, nil)", ok, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if ok, err := ContainsCtx(ctx, host, pat); ok || err != context.Canceled {
		t.Fatalf("cancelled context: ContainsCtx = (%v, %v), want (false, context.Canceled)", ok, err)
	}
}

// TestVF2ZeroAllocSteadyState pins the frozen VF2 inner loop at zero
// steady-state allocations: once the matcher scratch and the pattern's
// cached matching order are warm, a containment check allocates nothing.
// Skipped under -race, whose instrumentation allocates.
func TestVF2ZeroAllocSteadyState(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(7))
	labels := []string{"C", "N", "O"}
	type pair struct{ t, p *graph.Frozen }
	var pairs []pair
	for i := 0; i < 6; i++ {
		g := randomGraph(rng, 12, 18, labels)
		p := graph.RandomConnectedSubgraph(g, 3, rng)
		if p == nil {
			continue
		}
		pairs = append(pairs, pair{g.Freeze(), p.Freeze()})
	}
	if len(pairs) == 0 {
		t.Fatal("no test pairs")
	}
	m := NewMatcher()
	for _, pr := range pairs { // warm scratch buffers and order caches
		m.Contains(pr.t, pr.p)
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, pr := range pairs {
			m.Contains(pr.t, pr.p)
		}
	})
	if allocs != 0 {
		t.Fatalf("frozen VF2 steady state allocates: %v allocs/run, want 0", allocs)
	}
}

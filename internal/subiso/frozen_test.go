package subiso

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/oracle"
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
// map-graph reference VF2 of internal/oracle on random (host, pattern)
// pairs: identical answers for Contains, and identical (contained,
// definitive) pairs for ContainsBudget at tight budgets — the latter only
// holds because the two matchers expand the exact same search tree in the
// same order.
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

		legacy := oracle.Contains(host, pat)
		if got := Contains(host, pat); got != legacy {
			t.Fatalf("iter %d: frozen Contains=%v legacy=%v\nhost=%v\npat=%v",
				iter, got, legacy, host, pat)
		}
		if got, err := ContainsCtx(context.Background(), host, pat); err != nil || got != legacy {
			t.Fatalf("iter %d: frozen ContainsCtx=(%v,%v) legacy=%v", iter, got, err, legacy)
		}

		for _, budget := range []int{1, 5, 50, 100000} {
			wantC, wantD := oracle.ContainsBudget(host, pat, budget)
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

// pastDeadlineCtx reports a deadline that has passed while Err is still
// nil: the state a deadline context is in until its timer fires, which
// search kernels busy on every P can delay by 10ms or more.
type pastDeadlineCtx struct{ context.Context }

func (pastDeadlineCtx) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

// TestContainsCtxStopsAtPassedDeadline: the matcher checks the deadline
// against the clock when it polls, so a search whose deadline has passed
// answers context.DeadlineExceeded instead of running to its verdict. The
// pattern, a 5-cycle, never embeds in the bipartite K8,8, so the search
// expands far more than ctxCheckMask nodes.
func TestContainsCtxStopsAtPassedDeadline(t *testing.T) {
	host := graph.New(16, 64)
	for i := 0; i < 16; i++ {
		host.AddVertex("C")
	}
	for u := 0; u < 8; u++ {
		for v := 8; v < 16; v++ {
			host.MustAddEdge(graph.VertexID(u), graph.VertexID(v))
		}
	}
	cycle := graph.New(5, 5)
	for i := 0; i < 5; i++ {
		cycle.AddVertex("C")
	}
	for i := 0; i < 5; i++ {
		cycle.MustAddEdge(graph.VertexID(i), graph.VertexID((i+1)%5))
	}
	if ok, err := ContainsCtx(pastDeadlineCtx{context.Background()}, host, cycle); ok || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ContainsCtx past its deadline = (%v, %v), want (false, context.DeadlineExceeded)", ok, err)
	}
	if ok, err := ContainsCtx(context.Background(), host, cycle); ok || err != nil {
		t.Fatalf("ContainsCtx without a deadline = (%v, %v), want (false, nil)", ok, err)
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
	m := new(Matcher)
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

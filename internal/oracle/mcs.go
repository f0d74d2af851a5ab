package oracle

import (
	"context"
	"sort"

	"repro/internal/graph"
	"repro/internal/mcs"
	"repro/internal/pipeline"
)

// The map-graph McGregor MCCS search: string label comparisons, per-node
// candidate allocation, map-based dedup. The frozen mcs.Searcher must
// explore this exact search tree, so MCCS/MCS results — including
// budget-exhausted suboptimal ones — are bit-identical between the two.

type searcher struct {
	g1, g2   *graph.Graph
	m12      []graph.VertexID // g1 -> g2, -1 unmapped
	m21      []graph.VertexID // g2 -> g1, -1 unmapped
	cur      []mcs.Pair
	curEdges int
	best     []mcs.Pair
	bestEdge int
	budget   int
	nodes    int
	minE     int
	ctx      context.Context // optional; polled every ctxCheckMask+1 nodes
	ctxErr   error
}

// ctxCheckMask throttles cancellation polling to once every 256 explored
// search nodes.
const ctxCheckMask = 0xff

// MCCSCtx is the reference for mcs.MCCSCtx.
func MCCSCtx(ctx context.Context, g1, g2 *graph.Graph, budget int) (mcs.Result, error) {
	pipeline.From(ctx).Add(pipeline.CounterMCSCalls, 1)
	if budget <= 0 {
		budget = mcs.DefaultBudget
	}
	s := &searcher{
		g1:     g1,
		g2:     g2,
		m12:    fill(g1.NumVertices()),
		m21:    fill(g2.NumVertices()),
		budget: budget,
		minE:   min(g1.NumEdges(), g2.NumEdges()),
		ctx:    ctx,
	}
	// Try every label-compatible seed pair. To break the symmetry of
	// re-discovering the same subgraph from different seeds, seeds are
	// ordered and each search only ever maps seed pairs at the root.
	seeds := s.seedPairs()
	for _, p := range seeds {
		s.place(p, 0)
		s.extend()
		s.unplace(p, 0)
		if s.bestEdge >= s.minE || s.nodes >= s.budget || s.ctxErr != nil {
			break
		}
	}
	if s.ctxErr != nil {
		return mcs.Result{}, s.ctxErr
	}
	return mcs.Result{
		Pairs:     s.best,
		Edges:     s.bestEdge,
		Exhausted: s.nodes >= s.budget,
	}, nil
}

// MCSCtx is the reference for mcs.MCSCtx: a greedy union of connected
// common subgraphs, blanking the labels of matched vertices between rounds.
func MCSCtx(ctx context.Context, g1, g2 *graph.Graph, budget int) (mcs.Result, error) {
	if budget <= 0 {
		budget = mcs.DefaultBudget
	}
	h1, h2 := g1.Clone(), g2.Clone()
	// removed vertices are tracked by blanking labels to a sentinel that
	// never matches; this keeps vertex IDs stable.
	const tomb = "\x00removed"
	var all []mcs.Pair
	total := 0
	exhausted := false
	for {
		r, err := MCCSCtx(ctx, h1, h2, budget)
		if err != nil {
			return mcs.Result{}, err
		}
		exhausted = exhausted || r.Exhausted
		if r.Edges == 0 {
			break
		}
		total += r.Edges
		all = append(all, r.Pairs...)
		for _, p := range r.Pairs {
			h1.SetLabel(p.V1, tomb)
			h2.SetLabel(p.V2, tomb+"2") // distinct sentinels never match
		}
	}
	return mcs.Result{Pairs: all, Edges: total, Exhausted: exhausted}, nil
}

// SimilarityCtx is the reference for mcs.SimilarityKindCtx:
// |common edges| / min(|E1|, |E2|) under the measure k.
func SimilarityCtx(ctx context.Context, k mcs.Kind, g1, g2 *graph.Graph, budget int) (float64, error) {
	m := min(g1.NumEdges(), g2.NumEdges())
	if m == 0 {
		return 0, nil
	}
	search := MCCSCtx
	if k == mcs.KindMCS {
		search = MCSCtx
	}
	r, err := search(ctx, g1, g2, budget)
	if err != nil {
		return 0, err
	}
	return float64(r.Edges) / float64(m), nil
}

func fill(n int) []graph.VertexID {
	s := make([]graph.VertexID, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

// seedPairs enumerates label-compatible (v1, v2) pairs ordered by the
// product of degrees descending, so dense regions are explored first.
func (s *searcher) seedPairs() []mcs.Pair {
	var ps []mcs.Pair
	for v1 := 0; v1 < s.g1.NumVertices(); v1++ {
		for v2 := 0; v2 < s.g2.NumVertices(); v2++ {
			if s.g1.Label(graph.VertexID(v1)) == s.g2.Label(graph.VertexID(v2)) {
				ps = append(ps, mcs.Pair{V1: graph.VertexID(v1), V2: graph.VertexID(v2)})
			}
		}
	}
	sort.Slice(ps, func(i, j int) bool {
		di := s.g1.Degree(ps[i].V1) * s.g2.Degree(ps[i].V2)
		dj := s.g1.Degree(ps[j].V1) * s.g2.Degree(ps[j].V2)
		return di > dj
	})
	return ps
}

// place maps p and returns nothing; gain edges were counted by the caller.
func (s *searcher) place(p mcs.Pair, gain int) {
	s.m12[p.V1] = p.V2
	s.m21[p.V2] = p.V1
	s.cur = append(s.cur, p)
	s.curEdges += gain
}

func (s *searcher) unplace(p mcs.Pair, gain int) {
	s.m12[p.V1] = -1
	s.m21[p.V2] = -1
	s.cur = s.cur[:len(s.cur)-1]
	s.curEdges -= gain
}

// gain counts common edges created by adding pair p to the current mapping:
// edges from p.V1 to mapped g1-vertices whose images are adjacent to p.V2.
func (s *searcher) gain(p mcs.Pair) int {
	g := 0
	for _, n1 := range s.g1.Neighbors(p.V1) {
		if img := s.m12[n1]; img >= 0 && s.g2.HasEdge(p.V2, img) {
			g++
		}
	}
	return g
}

// extend grows the current connected mapping with candidate pairs adjacent
// to it, exploring gain-descending and recording the best edge count seen.
func (s *searcher) extend() {
	if s.ctx != nil && s.nodes&ctxCheckMask == ctxCheckMask && s.ctxErr == nil {
		if err := s.ctx.Err(); err != nil {
			s.ctxErr = err
		}
	}
	if s.ctxErr != nil {
		return
	}
	s.nodes++
	if s.curEdges > s.bestEdge {
		s.bestEdge = s.curEdges
		s.best = append(s.best[:0], s.cur...)
	}
	if s.nodes >= s.budget || s.bestEdge >= s.minE {
		return
	}

	cands := s.candidates()
	for _, c := range cands {
		g := s.gain(c)
		if g == 0 {
			continue // adjacency-connected candidates always gain >= 1
		}
		s.place(c, g)
		s.extend()
		s.unplace(c, g)
		if s.nodes >= s.budget || s.bestEdge >= s.minE || s.ctxErr != nil {
			return
		}
	}
}

// candidates enumerates unmapped label-compatible pairs adjacent (in both
// graphs) to the current mapping, ordered by gain descending.
func (s *searcher) candidates() []mcs.Pair {
	seen := make(map[mcs.Pair]struct{})
	var out []mcs.Pair
	for _, mp := range s.cur {
		for _, n1 := range s.g1.Neighbors(mp.V1) {
			if s.m12[n1] >= 0 {
				continue
			}
			for _, n2 := range s.g2.Neighbors(mp.V2) {
				if s.m21[n2] >= 0 {
					continue
				}
				if s.g1.Label(n1) != s.g2.Label(n2) {
					continue
				}
				p := mcs.Pair{V1: n1, V2: n2}
				if _, dup := seen[p]; !dup {
					seen[p] = struct{}{}
					out = append(out, p)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		gi, gj := s.gain(out[i]), s.gain(out[j])
		if gi != gj {
			return gi > gj
		}
		if out[i].V1 != out[j].V1 {
			return out[i].V1 < out[j].V1
		}
		return out[i].V2 < out[j].V2
	})
	return out
}

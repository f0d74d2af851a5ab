package oracle

import (
	"sort"

	"repro/internal/graph"
)

// The map-graph VF2 search: string labels, adjacency and edge tests on
// the mutable graph, a candidate slice allocated per unanchored node. The
// frozen subiso.Matcher must explore this exact search tree, so
// containment verdicts, budget-exhaustion reports and enumerated
// embeddings are bit-identical between the two.

type state struct {
	p, t    *graph.Graph
	core    []graph.VertexID // pattern -> target, -1 if unmapped
	used    []bool           // target vertex already mapped
	order   []graph.VertexID // pattern matching order
	maxSols int
	maxNode int
	nodes   int
	results [][]graph.VertexID
	stopped bool
}

// Contains reports whether pattern p is subgraph-isomorphic to target t.
func Contains(t, p *graph.Graph) bool {
	return len(FindAll(t, p, 1, 0)) > 0
}

// FindAll returns up to maxSolutions embeddings of p in t (all of them if
// maxSolutions is zero), expanding at most maxNodes search nodes (unbounded
// if zero), in search order.
func FindAll(t, p *graph.Graph, maxSolutions, maxNodes int) [][]graph.VertexID {
	s := search(t, p, maxSolutions, maxNodes)
	if s == nil {
		return nil
	}
	return s.results
}

// ContainsBudget reports whether p embeds in t within maxNodes expanded
// search nodes, and whether that answer is definitive: (false, false)
// means the budget ran out before an embedding was found.
func ContainsBudget(t, p *graph.Graph, maxNodes int) (contained, definitive bool) {
	s := search(t, p, 1, maxNodes)
	if s == nil {
		return false, true
	}
	if len(s.results) > 0 {
		return true, true
	}
	return false, !s.stopped || s.nodes < maxNodes
}

// search runs one VF2 search, or returns nil when quickReject rules the
// pattern out without one.
func search(t, p *graph.Graph, maxSolutions, maxNodes int) *state {
	if quickReject(t, p) {
		return nil
	}
	s := &state{
		p:       p,
		t:       t,
		core:    make([]graph.VertexID, p.NumVertices()),
		used:    make([]bool, t.NumVertices()),
		order:   MatchingOrder(p),
		maxSols: maxSolutions,
		maxNode: maxNodes,
	}
	for i := range s.core {
		s.core[i] = -1
	}
	s.search(0)
	return s
}

// quickReject applies cheap necessary conditions before running VF2.
func quickReject(t, p *graph.Graph) bool {
	if p.NumVertices() == 0 {
		return false // empty pattern trivially embeds
	}
	if p.NumVertices() > t.NumVertices() || p.NumEdges() > t.NumEdges() {
		return true
	}
	// Every pattern vertex label must appear at least as often in the target.
	tl := t.VertexLabels()
	for l, c := range p.VertexLabels() {
		if tl[l] < c {
			return true
		}
	}
	return false
}

func (s *state) search(depth int) {
	if s.stopped {
		return
	}
	if s.maxNode > 0 && s.nodes >= s.maxNode {
		s.stopped = true
		return
	}
	s.nodes++
	if depth == len(s.order) {
		s.results = append(s.results, append([]graph.VertexID(nil), s.core...))
		if s.maxSols > 0 && len(s.results) >= s.maxSols {
			s.stopped = true
		}
		return
	}

	pv := s.order[depth]
	for _, tv := range s.candidates(pv) {
		if s.feasible(pv, tv) {
			s.core[pv] = tv
			s.used[tv] = true
			s.search(depth + 1)
			s.core[pv] = -1
			s.used[tv] = false
			if s.stopped {
				return
			}
		}
	}
}

// candidates enumerates target vertices to try for pattern vertex pv. If pv
// has an already-mapped neighbor, candidates are restricted to the target
// neighbors of that neighbor's image; otherwise all unused target vertices.
func (s *state) candidates(pv graph.VertexID) []graph.VertexID {
	for _, pn := range s.p.Neighbors(pv) {
		if s.core[pn] >= 0 {
			return s.t.Neighbors(s.core[pn])
		}
	}
	all := make([]graph.VertexID, 0, s.t.NumVertices())
	for v := 0; v < s.t.NumVertices(); v++ {
		all = append(all, graph.VertexID(v))
	}
	return all
}

// feasible checks VF2 feasibility of mapping pv -> tv: labels equal, tv
// unused, degree sufficient, and every mapped pattern neighbor of pv maps to
// a target neighbor of tv.
func (s *state) feasible(pv, tv graph.VertexID) bool {
	if s.used[tv] {
		return false
	}
	if s.p.Label(pv) != s.t.Label(tv) {
		return false
	}
	if s.p.Degree(pv) > s.t.Degree(tv) {
		return false
	}
	for _, pn := range s.p.Neighbors(pv) {
		if tn := s.core[pn]; tn >= 0 && !s.t.HasEdge(tv, tn) {
			return false
		}
	}
	return true
}

// MatchingOrder is the reference VF2 matching order over pattern vertices,
// computed on the mutable graph: the first vertex is the highest-degree
// one and each subsequent vertex is adjacent to an earlier one where
// possible. graph.Frozen.MatchingOrder must return the same order (same
// sort calls on the same input order, so ties break identically).
func MatchingOrder(p *graph.Graph) []graph.VertexID {
	n := p.NumVertices()
	order := make([]graph.VertexID, 0, n)
	inOrder := make([]bool, n)

	verts := make([]graph.VertexID, n)
	for i := range verts {
		verts[i] = graph.VertexID(i)
	}
	sort.Slice(verts, func(i, j int) bool {
		return p.Degree(verts[i]) > p.Degree(verts[j])
	})

	for len(order) < n {
		// Pick the highest-degree vertex not yet placed to start a
		// (possibly new) component.
		var seed graph.VertexID = -1
		for _, v := range verts {
			if !inOrder[v] {
				seed = v
				break
			}
		}
		order = append(order, seed)
		inOrder[seed] = true
		// BFS-expand this component in degree-descending frontier order.
		frontier := append([]graph.VertexID(nil), p.Neighbors(seed)...)
		for len(frontier) > 0 {
			sort.Slice(frontier, func(i, j int) bool {
				return p.Degree(frontier[i]) > p.Degree(frontier[j])
			})
			v := frontier[0]
			frontier = frontier[1:]
			if inOrder[v] {
				continue
			}
			order = append(order, v)
			inOrder[v] = true
			for _, w := range p.Neighbors(v) {
				if !inOrder[w] {
					frontier = append(frontier, w)
				}
			}
		}
	}
	return order
}

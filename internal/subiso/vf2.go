// Package subiso implements subgraph isomorphism testing with the VF2
// algorithm (Cordella et al., IEEE TPAMI 2004), the primitive the paper uses
// for cluster-coverage checks (Sec 5, "we use the vf2 algorithm [14]").
//
// The matcher finds (non-induced) subgraph isomorphisms: an injective
// mapping from pattern vertices to target vertices preserving vertex labels
// and mapping every pattern edge onto a target edge. This is the standard
// semantics for subgraph queries ("G contains a subgraph s isomorphic
// to p").
package subiso

import (
	"repro/internal/graph"
)

// Mapping maps pattern vertex IDs to target vertex IDs.
type Mapping []graph.VertexID

// Clone returns a copy of the mapping.
func (m Mapping) Clone() Mapping { return append(Mapping(nil), m...) }

// Options tunes a VF2 search.
type Options struct {
	// MaxSolutions stops the search after this many embeddings have been
	// reported. Zero means unlimited.
	MaxSolutions int
	// MaxNodes bounds the number of search-tree nodes expanded; zero means
	// unlimited. When exceeded, the search stops early (Contains may
	// under-report on pathological inputs; all callers in this repository
	// use patterns small enough that the default unlimited search is fast).
	MaxNodes int
}

type state struct {
	p, t    *graph.Graph
	core    []graph.VertexID // pattern -> target, -1 if unmapped
	used    []bool           // target vertex already mapped
	order   []graph.VertexID // pattern matching order
	opts    Options
	nodes   int
	results []Mapping
	yield   func(Mapping) bool // optional callback; return false to stop
	stopped bool
}

// FindOne returns one embedding of p in t, or nil if none exists.
func FindOne(t, p *graph.Graph) Mapping {
	if quickReject(t, p) {
		return nil
	}
	s := newState(t, p, Options{MaxSolutions: 1})
	s.search(0)
	if len(s.results) == 0 {
		return nil
	}
	return s.results[0]
}

// FindAll returns up to opts.MaxSolutions embeddings of p in t (all of them
// if MaxSolutions is zero).
func FindAll(t, p *graph.Graph, opts Options) []Mapping {
	if quickReject(t, p) {
		return nil
	}
	s := newState(t, p, opts)
	s.search(0)
	return s.results
}

// ForEach invokes fn for every embedding of p in t until fn returns false
// or the search space is exhausted.
func ForEach(t, p *graph.Graph, fn func(Mapping) bool) {
	if quickReject(t, p) {
		return
	}
	s := newState(t, p, Options{})
	s.yield = fn
	s.search(0)
}

// Count returns the number of embeddings of p in t, up to limit (unlimited
// if limit is zero).
func Count(t, p *graph.Graph, limit int) int {
	n := 0
	ForEach(t, p, func(Mapping) bool {
		n++
		return limit == 0 || n < limit
	})
	return n
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

func newState(t, p *graph.Graph, opts Options) *state {
	s := &state{
		p:    p,
		t:    t,
		core: make([]graph.VertexID, p.NumVertices()),
		used: make([]bool, t.NumVertices()),
		opts: opts,
	}
	for i := range s.core {
		s.core[i] = -1
	}
	s.order = graph.MatchingOrder(p)
	return s
}

func (s *state) search(depth int) {
	if s.stopped {
		return
	}
	if s.opts.MaxNodes > 0 && s.nodes >= s.opts.MaxNodes {
		s.stopped = true
		return
	}
	s.nodes++
	if depth == len(s.order) {
		m := Mapping(s.core).Clone()
		if s.yield != nil {
			if !s.yield(m) {
				s.stopped = true
			}
			return
		}
		s.results = append(s.results, m)
		if s.opts.MaxSolutions > 0 && len(s.results) >= s.opts.MaxSolutions {
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

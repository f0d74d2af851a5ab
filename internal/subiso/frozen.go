package subiso

import (
	"context"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/pipeline"
)

// Matcher is a reusable VF2 matcher over frozen (CSR) graphs. It owns the
// per-search scratch state — the pattern→target core array and the
// target-used bitmap — and grows it monotonically, so a warm Matcher runs
// a containment check with zero allocations: candidates are iterated
// directly off the frozen neighbor slices and boolean answers never
// materialize a Mapping. Embedding enumeration (FindOne/FindAll) walks the
// same search tree and copies the core array into a Mapping at each leaf.
// A Matcher is not safe for concurrent use; the package-level entry points
// draw from a sync.Pool.
//
// The search tree is the one of the map-graph reference VF2 in
// internal/oracle: the matching order is Frozen.MatchingOrder, candidate
// and neighbor enumeration follow the same sorted order, and node
// accounting is identical — so containment verdicts (including
// non-definitive budget exhaustion) and enumerated embeddings, in order,
// are bit-identical to the reference.
type Matcher struct {
	t, p         *graph.Frozen
	order        []int32
	core         []int32 // pattern -> target, -1 if unmapped
	used         []bool  // target vertex already mapped
	nodes        int
	maxNodes     int
	found        bool
	stopped      bool
	ctx          context.Context
	ctxErr       error
	enumerate    bool      // collect every leaf into results
	maxSolutions int       // enumeration stops at this many results; <= 0 = all
	results      []Mapping // enumerated embeddings, in search order
}

var matcherPool = sync.Pool{New: func() any { return new(Matcher) }}

// ctxCheckMask throttles cancellation polling: the context (its done state,
// and its deadline against the clock) is consulted once every 256 expanded
// search nodes, keeping the overhead of a cancellable search negligible
// while bounding cancellation latency.
const ctxCheckMask = 0xff

// reset prepares the scratch state for a search of pattern p in target t.
func (m *Matcher) reset(t, p *graph.Frozen) {
	m.t, m.p = t, p
	m.order = p.MatchingOrder()
	np, nt := p.NumVertices(), t.NumVertices()
	if cap(m.core) < np {
		m.core = make([]int32, np)
	}
	m.core = m.core[:np]
	for i := range m.core {
		m.core[i] = -1
	}
	if cap(m.used) < nt {
		m.used = make([]bool, nt)
	}
	m.used = m.used[:nt]
	for i := range m.used {
		m.used[i] = false
	}
	m.nodes = 0
	m.maxNodes = 0
	m.found = false
	m.stopped = false
	m.ctx = nil
	m.ctxErr = nil
	m.enumerate = false
	m.maxSolutions = 0
	m.results = nil
}

// Contains reports whether pattern p is subgraph-isomorphic to target t.
// Zero allocations once the matcher's scratch buffers and the pattern's
// cached matching order are warm.
func (m *Matcher) Contains(t, p *graph.Frozen) bool {
	if quickRejectFrozen(t, p) {
		return false
	}
	m.reset(t, p)
	m.search(0)
	return m.found
}

// ContainsCtx is Contains with cooperative cancellation, polling ctx on
// entry and then once every ctxCheckMask+1 expanded nodes. The entry poll
// matters for small searches that finish within ctxCheckMask nodes: a
// search started after its deadline answers ctx.Err(), never a verdict.
func (m *Matcher) ContainsCtx(ctx context.Context, t, p *graph.Frozen) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if quickRejectFrozen(t, p) {
		return false, nil
	}
	m.reset(t, p)
	m.ctx = ctx
	m.search(0)
	if m.found {
		return true, nil
	}
	return false, m.ctxErr
}

// ContainsBudget is Contains with a bound on expanded search nodes,
// mirroring the package-level ContainsBudget contract.
func (m *Matcher) ContainsBudget(t, p *graph.Frozen, maxNodes int) (contained, definitive bool) {
	if quickRejectFrozen(t, p) {
		return false, true
	}
	m.reset(t, p)
	m.maxNodes = maxNodes
	m.search(0)
	if m.found {
		return true, true
	}
	return false, !m.stopped || m.nodes < maxNodes
}

// findAll enumerates up to opts.MaxSolutions embeddings of p in t (all of
// them when zero) within opts.MaxNodes expanded nodes (unbounded when
// zero), in search order.
func (m *Matcher) findAll(t, p *graph.Frozen, opts Options) []Mapping {
	if quickRejectFrozen(t, p) {
		return nil
	}
	m.reset(t, p)
	m.maxNodes = opts.MaxNodes
	m.enumerate = true
	m.maxSolutions = opts.MaxSolutions
	m.search(0)
	ms := m.results
	m.results = nil // the pooled matcher must not retain caller-owned results
	return ms
}

func (m *Matcher) search(depth int) {
	if m.stopped {
		return
	}
	if m.maxNodes > 0 && m.nodes >= m.maxNodes {
		m.stopped = true
		return
	}
	if m.ctx != nil && m.nodes&ctxCheckMask == ctxCheckMask {
		if err := m.ctx.Err(); err != nil {
			m.ctxErr = err
		} else if dl, ok := m.ctx.Deadline(); ok && !time.Now().Before(dl) {
			// A deadline timer fires only at a scheduling point, which
			// kernels busy on every P delay by 10ms or more; read the clock.
			m.ctxErr = context.DeadlineExceeded
		}
		if m.ctxErr != nil {
			m.stopped = true
			return
		}
	}
	m.nodes++
	if depth == len(m.order) {
		m.found = true
		if m.enumerate {
			mp := make(Mapping, len(m.core))
			for i, tv := range m.core {
				mp[i] = graph.VertexID(tv)
			}
			m.results = append(m.results, mp)
			if m.maxSolutions <= 0 || len(m.results) < m.maxSolutions {
				return
			}
		}
		m.stopped = true
		return
	}

	pv := m.order[depth]
	// Candidate enumeration: if pv has an already-mapped pattern neighbor,
	// candidates are the target neighbors of that neighbor's image;
	// otherwise every target vertex. Both are iterated in ascending order.
	for _, pn := range m.p.Neighbors(pv) {
		if m.core[pn] >= 0 {
			for _, tv := range m.t.Neighbors(m.core[pn]) {
				m.try(pv, tv, depth)
				if m.stopped {
					return
				}
			}
			return
		}
	}
	for tv := int32(0); int(tv) < m.t.NumVertices(); tv++ {
		m.try(pv, tv, depth)
		if m.stopped {
			return
		}
	}
}

// try maps pv -> tv if feasible and recurses.
func (m *Matcher) try(pv, tv int32, depth int) {
	if m.used[tv] {
		return
	}
	if m.p.Label(pv) != m.t.Label(tv) {
		return
	}
	if m.p.Degree(pv) > m.t.Degree(tv) {
		return
	}
	for _, pn := range m.p.Neighbors(pv) {
		if tn := m.core[pn]; tn >= 0 && !m.t.HasEdge(tv, tn) {
			return
		}
	}
	m.core[pv] = tv
	m.used[tv] = true
	m.search(depth + 1)
	m.core[pv] = -1
	m.used[tv] = false
}

// quickRejectFrozen applies cheap necessary conditions before the search,
// on precomputed frozen summaries: the pattern fits in the target and every
// pattern label occurs at least as often in the target.
func quickRejectFrozen(t, p *graph.Frozen) bool {
	if p.NumVertices() == 0 {
		return false // empty pattern trivially embeds
	}
	if p.NumVertices() > t.NumVertices() || p.NumEdges() > t.NumEdges() {
		return true
	}
	tl := t.LabelCounts()
	for l, c := range p.LabelCounts() {
		if tl[l] < c {
			return true
		}
	}
	return false
}

// ContainsCtx reports whether pattern p is subgraph-isomorphic to target
// t, with cooperative cancellation: the search polls ctx at
// node-expansion boundaries and returns ctx.Err() when cancelled before
// an answer was established. Each call is counted on the context's
// pipeline tracer (CounterVF2Calls). Both graphs are frozen on first use
// (memoized on the graphs), and the search runs on the CSR form.
func ContainsCtx(ctx context.Context, t, p *graph.Graph) (bool, error) {
	pipeline.From(ctx).Add(pipeline.CounterVF2Calls, 1)
	m := matcherPool.Get().(*Matcher)
	ok, err := m.ContainsCtx(ctx, t.Freeze(), p.Freeze())
	matcherPool.Put(m)
	return ok, err
}

// Contains reports whether pattern p is subgraph-isomorphic to target t.
// It is the supported context-free form: uncancellable, and it reports to
// no pipeline trace. Use ContainsCtx inside budgeted or traced runs.
func Contains(t, p *graph.Graph) bool {
	m := matcherPool.Get().(*Matcher)
	ok := m.Contains(t.Freeze(), p.Freeze())
	matcherPool.Put(m)
	return ok
}

// ContainsBudget is Contains with a bound on expanded search nodes. When
// the budget is exhausted before an embedding is found it returns
// (false, false): "no embedding found, answer not definitive". Callers that
// tolerate one-sided error (support estimation over many graphs) treat
// that as non-containment.
func ContainsBudget(t, p *graph.Graph, maxNodes int) (contained, definitive bool) {
	m := matcherPool.Get().(*Matcher)
	contained, definitive = m.ContainsBudget(t.Freeze(), p.Freeze(), maxNodes)
	matcherPool.Put(m)
	return contained, definitive
}

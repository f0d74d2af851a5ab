// Package graph provides labeled undirected simple graphs and graph
// databases, the base data model for the CATAPULT canned-pattern
// selection pipeline.
//
// Graphs follow the paper's conventions (Sec 2): connected, undirected,
// simple, with labeled vertices. Edge labels are derived as the unordered
// concatenation of endpoint labels unless explicitly set. The size of a
// graph is its number of edges, |G| = |E|.
package graph

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// VertexID identifies a vertex within a single graph. IDs are dense:
// 0..NumVertices-1.
type VertexID int

// Edge is an undirected edge between two vertices. The pair is stored in
// canonical order (U <= V) so edges compare equal regardless of insertion
// direction.
type Edge struct {
	U, V VertexID
}

// NewEdge returns the canonical form of the edge {u, v}.
func NewEdge(u, v VertexID) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// Other returns the endpoint of e that is not v. It panics if v is not an
// endpoint of e.
func (e Edge) Other(v VertexID) VertexID {
	switch v {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge %v", v, e))
}

// Graph is a labeled undirected simple graph. The zero value is an empty
// graph ready for use.
type Graph struct {
	// ID is the graph's index in its database (Sec 2: "we assign a unique
	// index to each data graph"). Zero-valued for standalone graphs.
	ID int

	labels    []string        // vertex labels, indexed by VertexID
	adj       [][]VertexID    // adjacency lists, sorted ascending
	edges     []Edge          // canonical edge list, insertion order
	edgeLabel map[Edge]string // explicit edge labels (optional)

	// frozen memoizes the immutable CSR snapshot of this graph; structural
	// mutators drop it. See Freeze in frozen.go.
	frozen atomic.Pointer[Frozen]
}

// New returns an empty graph with capacity hints for n vertices and m edges.
func New(n, m int) *Graph {
	return &Graph{
		labels:    make([]string, 0, n),
		adj:       make([][]VertexID, 0, n),
		edges:     make([]Edge, 0, m),
		edgeLabel: nil,
	}
}

// AddVertex appends a vertex with the given label and returns its ID.
func (g *Graph) AddVertex(label string) VertexID {
	id := VertexID(len(g.labels))
	g.labels = append(g.labels, label)
	g.adj = append(g.adj, nil)
	g.frozen.Store(nil)
	return id
}

// AddEdge inserts the undirected edge {u, v}. It returns an error if either
// endpoint does not exist, if u == v (self loop), or if the edge already
// exists (simple graph).
func (g *Graph) AddEdge(u, v VertexID) error {
	if err := g.checkVertex(u); err != nil {
		return err
	}
	if err := g.checkVertex(v); err != nil {
		return err
	}
	if u == v {
		return fmt.Errorf("graph: self loop on vertex %d", u)
	}
	e := NewEdge(u, v)
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge %v", e)
	}
	g.edges = append(g.edges, e)
	g.adj[u] = insertSorted(g.adj[u], v)
	g.adj[v] = insertSorted(g.adj[v], u)
	g.frozen.Store(nil)
	return nil
}

// MustAddEdge is AddEdge but panics on error. It is intended for tests and
// for construction of hard-coded pattern literals.
func (g *Graph) MustAddEdge(u, v VertexID) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// SetEdgeLabel assigns an explicit label to an existing edge.
func (g *Graph) SetEdgeLabel(u, v VertexID, label string) error {
	e := NewEdge(u, v)
	if !g.HasEdge(u, v) {
		return fmt.Errorf("graph: no edge %v", e)
	}
	if g.edgeLabel == nil {
		g.edgeLabel = make(map[Edge]string)
	}
	g.edgeLabel[e] = label
	return nil
}

func insertSorted(s []VertexID, v VertexID) []VertexID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func (g *Graph) checkVertex(v VertexID) error {
	if v < 0 || int(v) >= len(g.labels) {
		return fmt.Errorf("graph: vertex %d out of range [0,%d)", v, len(g.labels))
	}
	return nil
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.labels) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Size returns the paper's graph size |G| = |E|.
func (g *Graph) Size() int { return len(g.edges) }

// Label returns the label of vertex v.
func (g *Graph) Label(v VertexID) string { return g.labels[v] }

// SetLabel replaces the label of vertex v.
func (g *Graph) SetLabel(v VertexID, label string) {
	g.labels[v] = label
	g.frozen.Store(nil)
}

// EdgeLabel returns the label of edge {u, v}. If no explicit label was set,
// it returns the canonical concatenation of the endpoint labels (paper
// Sec 3.2 fn 5): the two vertex labels sorted and joined by "-".
func (g *Graph) EdgeLabel(u, v VertexID) string {
	e := NewEdge(u, v)
	if l, ok := g.edgeLabel[e]; ok {
		return l
	}
	return CanonicalEdgeLabel(g.labels[e.U], g.labels[e.V])
}

// ExplicitEdgeLabel returns the explicitly assigned label of edge {u, v}
// and whether one was set. Unlike EdgeLabel it never falls back to the
// derived endpoint-label concatenation, so serializers (io.go, the
// CSNAP1 snapshot store) can round-trip a graph losslessly: derived
// labels are recomputed on load, explicit ones are stored.
func (g *Graph) ExplicitEdgeLabel(u, v VertexID) (string, bool) {
	l, ok := g.edgeLabel[NewEdge(u, v)]
	return l, ok
}

// CanonicalEdgeLabel joins two vertex labels in sorted order, the derived
// edge label used throughout coverage computations.
func CanonicalEdgeLabel(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "-" + b
}

// HasEdge reports whether the undirected edge {u, v} exists, by binary
// search over the shorter of the two sorted adjacency lists. Vertices out
// of range have no edges.
func (g *Graph) HasEdge(u, v VertexID) bool {
	if u < 0 || v < 0 || int(u) >= len(g.adj) || int(v) >= len(g.adj) {
		return false
	}
	if len(g.adj[v]) < len(g.adj[u]) {
		u, v = v, u
	}
	nb := g.adj[u]
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
	return i < len(nb) && nb[i] == v
}

// Neighbors returns the sorted adjacency list of v. The returned slice is
// owned by the graph and must not be modified.
func (g *Graph) Neighbors(v VertexID) []VertexID { return g.adj[v] }

// Degree returns the degree of v.
func (g *Graph) Degree(v VertexID) int { return len(g.adj[v]) }

// MaxDegree returns the maximum vertex degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for _, nb := range g.adj {
		if len(nb) > max {
			max = len(nb)
		}
	}
	return max
}

// Edges returns the edge list in insertion order. The returned slice is
// owned by the graph and must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// VertexLabels returns the multiset of vertex labels as a frequency map.
func (g *Graph) VertexLabels() map[string]int {
	m := make(map[string]int, len(g.labels))
	for _, l := range g.labels {
		m[l]++
	}
	return m
}

// EdgeLabels returns the multiset of edge labels as a frequency map.
func (g *Graph) EdgeLabels() map[string]int {
	m := make(map[string]int, len(g.edges))
	for _, e := range g.edges {
		m[g.EdgeLabel(e.U, e.V)]++
	}
	return m
}

// Density returns 2|E| / (|V|(|V|-1)), the ρ used by the paper's cognitive
// load measure. A graph with fewer than two vertices has density 0.
func (g *Graph) Density() float64 {
	n := len(g.labels)
	if n < 2 {
		return 0
	}
	return 2 * float64(len(g.edges)) / (float64(n) * float64(n-1))
}

// CognitiveLoad returns cog(p) = |Ep| × ρp (paper Sec 3.2).
func (g *Graph) CognitiveLoad() float64 {
	return float64(len(g.edges)) * g.Density()
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		ID:     g.ID,
		labels: append([]string(nil), g.labels...),
		adj:    make([][]VertexID, len(g.adj)),
		edges:  append([]Edge(nil), g.edges...),
	}
	for i, nb := range g.adj {
		c.adj[i] = append([]VertexID(nil), nb...)
	}
	if g.edgeLabel != nil {
		c.edgeLabel = make(map[Edge]string, len(g.edgeLabel))
		for e, l := range g.edgeLabel {
			c.edgeLabel[e] = l
		}
	}
	return c
}

// IsConnected reports whether g is connected. The empty graph is considered
// connected.
func (g *Graph) IsConnected() bool {
	n := len(g.labels)
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	stack := []VertexID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == n
}

// ConnectedComponents returns the vertex sets of the connected components.
func (g *Graph) ConnectedComponents() [][]VertexID {
	n := len(g.labels)
	seen := make([]bool, n)
	var comps [][]VertexID
	for s := VertexID(0); int(s) < n; s++ {
		if seen[s] {
			continue
		}
		var comp []VertexID
		stack := []VertexID{s}
		seen[s] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for _, w := range g.adj[v] {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	return comps
}

// InducedSubgraph returns the subgraph induced by the given vertices,
// together with the mapping from new vertex IDs to the original IDs.
func (g *Graph) InducedSubgraph(vs []VertexID) (*Graph, []VertexID) {
	idx := make(map[VertexID]VertexID, len(vs))
	sub := New(len(vs), 0)
	orig := make([]VertexID, 0, len(vs))
	for _, v := range vs {
		if _, dup := idx[v]; dup {
			continue
		}
		idx[v] = sub.AddVertex(g.labels[v])
		orig = append(orig, v)
	}
	for _, v := range orig {
		for _, w := range g.adj[v] {
			if w > v {
				if nw, ok := idx[w]; ok {
					sub.MustAddEdge(idx[v], nw)
					if l, ok := g.edgeLabel[NewEdge(v, w)]; ok {
						_ = sub.SetEdgeLabel(idx[v], nw, l)
					}
				}
			}
		}
	}
	return sub, orig
}

// EdgeSubgraph returns the subgraph formed by the given edges (vertices are
// the endpoints of those edges), together with the mapping from new vertex
// IDs to the original IDs.
func (g *Graph) EdgeSubgraph(es []Edge) (*Graph, []VertexID) {
	idx := make(map[VertexID]VertexID, 2*len(es))
	sub := New(2*len(es), len(es))
	var orig []VertexID
	get := func(v VertexID) VertexID {
		if nv, ok := idx[v]; ok {
			return nv
		}
		nv := sub.AddVertex(g.labels[v])
		idx[v] = nv
		orig = append(orig, v)
		return nv
	}
	for _, e := range es {
		u, v := get(e.U), get(e.V)
		if !sub.HasEdge(u, v) {
			sub.MustAddEdge(u, v)
			if l, ok := g.edgeLabel[e]; ok {
				_ = sub.SetEdgeLabel(u, v, l)
			}
		}
	}
	return sub, orig
}

// String renders a compact human-readable description of the graph.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "G%d(V=%d,E=%d){", g.ID, g.NumVertices(), g.NumEdges())
	for i, e := range g.edges {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s%d-%s%d", g.labels[e.U], e.U, g.labels[e.V], e.V)
	}
	b.WriteByte('}')
	return b.String()
}

// Signature returns a cheap label-multiset signature used as a fast
// pre-filter before isomorphism checks: "|V|:|E|:sorted vertex labels".
// Equal graphs have equal signatures; unequal signatures imply non-isomorphic
// graphs.
func (g *Graph) Signature() string {
	ls := append([]string(nil), g.labels...)
	sort.Strings(ls)
	return fmt.Sprintf("%d:%d:%s", len(g.labels), len(g.edges), strings.Join(ls, ","))
}

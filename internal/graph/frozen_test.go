package graph_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/canon"
	"repro/internal/graph"
	"repro/internal/oracle"
)

func TestInterner(t *testing.T) {
	in := graph.NewInterner()
	a := in.Intern("C")
	b := in.Intern("N")
	if a == b {
		t.Fatal("distinct labels share an ID")
	}
	if got := in.Intern("C"); got != a {
		t.Fatalf("re-intern changed ID: %d vs %d", got, a)
	}
	if in.LabelString(a) != "C" || in.LabelString(b) != "N" {
		t.Fatal("LabelString round-trip failed")
	}
	if id, ok := in.Lookup("N"); !ok || id != b {
		t.Fatal("Lookup failed")
	}
	if _, ok := in.Lookup("missing"); ok {
		t.Fatal("Lookup invented a label")
	}
	if in.Len() != 2 {
		t.Fatalf("Len = %d, want 2", in.Len())
	}
}

func TestFreezeMemoAndInvalidation(t *testing.T) {
	g := graph.New(3, 2)
	u := g.AddVertex("C")
	v := g.AddVertex("N")
	g.MustAddEdge(u, v)

	f1 := g.Freeze()
	if f2 := g.Freeze(); f1 != f2 {
		t.Fatal("Freeze not memoized on an unchanged graph")
	}
	w := g.AddVertex("O")
	f3 := g.Freeze()
	if f3 == f1 {
		t.Fatal("AddVertex did not invalidate the frozen memo")
	}
	if f3.NumVertices() != 3 {
		t.Fatalf("stale snapshot: %d vertices", f3.NumVertices())
	}
	g.MustAddEdge(v, w)
	if g.Freeze() == f3 {
		t.Fatal("AddEdge did not invalidate the frozen memo")
	}
	f4 := g.Freeze()
	g.SetLabel(w, "S")
	f5 := g.Freeze()
	if f5 == f4 {
		t.Fatal("SetLabel did not invalidate the frozen memo")
	}
	if f5.LabelString(int32(w)) != "S" {
		t.Fatal("snapshot missed the relabel")
	}
	// Clones must not share the memo with their source.
	c := g.Clone()
	cf := c.Freeze()
	if cf == f5 {
		t.Fatal("clone shares its source's frozen snapshot")
	}
}

func TestFrozenAgainstMutable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	labels := []string{"C", "N", "O", "S", "P"}
	for iter := 0; iter < 100; iter++ {
		n := 1 + rng.Intn(14)
		g := graph.New(n, 0)
		for i := 0; i < n; i++ {
			g.AddVertex(labels[rng.Intn(len(labels))])
		}
		for tries := 0; tries < 3*n; tries++ {
			u := graph.VertexID(rng.Intn(n))
			v := graph.VertexID(rng.Intn(n))
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
		f := g.Freeze()
		if f.NumVertices() != g.NumVertices() || f.NumEdges() != g.NumEdges() {
			t.Fatalf("size mismatch: frozen %d/%d vs %d/%d",
				f.NumVertices(), f.NumEdges(), g.NumVertices(), g.NumEdges())
		}
		if int(f.MaxDegree()) != g.MaxDegree() {
			t.Fatalf("max degree mismatch")
		}
		for v := 0; v < n; v++ {
			fv := int32(v)
			if f.LabelString(fv) != g.Label(graph.VertexID(v)) {
				t.Fatalf("label mismatch at %d", v)
			}
			if int(f.Degree(fv)) != g.Degree(graph.VertexID(v)) {
				t.Fatalf("degree mismatch at %d", v)
			}
			nb := f.Neighbors(fv)
			gnb := g.Neighbors(graph.VertexID(v))
			if len(nb) != len(gnb) {
				t.Fatalf("neighbor count mismatch at %d", v)
			}
			for i := range nb {
				if graph.VertexID(nb[i]) != gnb[i] {
					t.Fatalf("neighbor order mismatch at %d", v)
				}
			}
			for w := 0; w < n; w++ {
				if f.HasEdge(fv, int32(w)) != g.HasEdge(graph.VertexID(v), graph.VertexID(w)) {
					t.Fatalf("HasEdge(%d,%d) mismatch", v, w)
				}
			}
		}
		// Label counts agree with the string multiset.
		want := g.VertexLabels()
		got := map[string]int{}
		for id, c := range f.LabelCounts() {
			got[f.Interner().LabelString(id)] = int(c)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("label multiset mismatch: %v vs %v", got, want)
		}
		if f.Bytes() <= 0 {
			t.Fatal("non-positive footprint")
		}
	}
}

// TestDifferentialMatchingOrderOracle checks the CSR matching order
// against the oracle's map-graph reference order, vertex for vertex, on
// random graphs — sparse and dense, often disconnected, with many degree
// ties — frozen from the mutable graph and built standalone by a
// FrozenBuilder (edges added in shuffled order, no backing graph).
func TestDifferentialMatchingOrderOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	labels := []string{"C", "N", "O"}
	same := func(what string, got []int32, want []graph.VertexID) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: order length %d, oracle %d", what, len(got), len(want))
		}
		for i := range want {
			if graph.VertexID(got[i]) != want[i] {
				t.Fatalf("%s: order %v, oracle %v", what, got, want)
			}
		}
	}
	for iter := 0; iter < 300; iter++ {
		n := rng.Intn(16)
		g := graph.New(n, 0)
		for i := 0; i < n; i++ {
			g.AddVertex(labels[rng.Intn(len(labels))])
		}
		for tries := rng.Intn(3*n + 1); tries > 0; tries-- {
			u, v := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
		want := oracle.MatchingOrder(g)
		same("Graph.Freeze", g.Freeze().MatchingOrder(), want)

		b := graph.NewFrozenBuilder(n, g.NumEdges())
		for v := 0; v < n; v++ {
			b.AddVertex(g.Label(graph.VertexID(v)))
		}
		es := g.Edges()
		for _, i := range rng.Perm(len(es)) {
			b.AddEdge(int32(es[i].V), int32(es[i].U))
		}
		sf := b.Build(0)
		if sf.Graph() != nil {
			t.Fatal("FrozenBuilder snapshot has a backing graph")
		}
		same("FrozenBuilder", sf.MatchingOrder(), want)
		same("FrozenBuilder vs its thaw", sf.MatchingOrder(), oracle.MatchingOrder(sf.Thaw()))
	}
}

// buildFuzzGraph deterministically decodes a byte string into a mutable
// graph: a vertex-count byte, then label bytes, then edge-endpoint pairs.
// Invalid edges (self loops, duplicates) are skipped, mirroring how
// callers construct graphs through the checked builder API.
func buildFuzzGraph(data []byte) *graph.Graph {
	if len(data) == 0 {
		return graph.New(0, 0)
	}
	labels := []string{"C", "N", "O", "S", "P", "Cl", "Br", "H"}
	n := 1 + int(data[0])%16
	data = data[1:]
	g := graph.New(n, 0)
	for i := 0; i < n; i++ {
		var l string
		if len(data) > 0 {
			l = labels[int(data[0])%len(labels)]
			data = data[1:]
		} else {
			l = labels[i%len(labels)]
		}
		g.AddVertex(l)
	}
	for len(data) >= 2 {
		u := graph.VertexID(int(data[0]) % n)
		v := graph.VertexID(int(data[1]) % n)
		data = data[2:]
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

// FuzzFreezeRoundTrip asserts that freezing and reconstructing from the
// frozen arrays is lossless: Thaw yields a graph with identical labels,
// identical edge list (same insertion order), identical String() and an
// equal canonical form — and that the round-trip graph freezes to an
// equivalent snapshot.
func FuzzFreezeRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 2, 0, 1, 1, 2})
	f.Add([]byte{7, 5, 5, 1, 2, 0, 3, 0, 1, 0, 2, 0, 3, 1, 4, 5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := buildFuzzGraph(data)
		fz := g.Freeze()
		h := fz.Thaw()

		if h.NumVertices() != g.NumVertices() || h.NumEdges() != g.NumEdges() {
			t.Fatalf("size changed: %d/%d vs %d/%d",
				h.NumVertices(), h.NumEdges(), g.NumVertices(), g.NumEdges())
		}
		for v := 0; v < g.NumVertices(); v++ {
			if h.Label(graph.VertexID(v)) != g.Label(graph.VertexID(v)) {
				t.Fatalf("label mismatch at %d", v)
			}
		}
		if !reflect.DeepEqual(h.Edges(), g.Edges()) {
			t.Fatalf("edge list mismatch:\n got %v\nwant %v", h.Edges(), g.Edges())
		}
		if h.String() != g.String() {
			t.Fatalf("String mismatch:\n got %s\nwant %s", h, g)
		}
		if !canon.Equal(g, h) {
			t.Fatal("canonical forms differ after round trip")
		}
		// The reconstruction freezes back to the same CSR content.
		fh := h.Freeze()
		if !reflect.DeepEqual(fh.EdgePairs(), fz.EdgePairs()) {
			t.Fatal("frozen edge pairs differ after round trip")
		}
	})
}

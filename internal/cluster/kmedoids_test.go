package cluster

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/simcache"
)

// kmedoidsT runs KMedoidsCtx with a fresh MCCS simcache engine at the
// given per-pair budget, failing the test on error.
func kmedoidsT(t *testing.T, db *graph.DB, k, budget int, seed int64, maxIter int) []*Cluster {
	t.Helper()
	eng := simcache.New(db.Graphs, simcache.Options{Budget: budget})
	cs, err := KMedoidsCtx(context.Background(), db, k, eng, seed, maxIter)
	if err != nil {
		t.Fatalf("KMedoidsCtx: %v", err)
	}
	return cs
}

func TestKMedoidsSeparatesFamilies(t *testing.T) {
	db := clusteredDB(6) // 6 rings then 6 stars
	cs := kmedoidsT(t, db, 2, 5000, 3, 0)
	if len(cs) != 2 {
		t.Fatalf("clusters = %d, want 2", len(cs))
	}
	for _, c := range cs {
		hasRing, hasStar := false, false
		for _, m := range c.Members {
			if m < 6 {
				hasRing = true
			} else {
				hasStar = true
			}
		}
		if hasRing && hasStar {
			t.Errorf("k-medoids mixed families: %v", c.Members)
		}
	}
}

func TestKMedoidsPartition(t *testing.T) {
	db := clusteredDB(5)
	cs := kmedoidsT(t, db, 3, 2000, 7, 10)
	seen := make([]bool, db.Len())
	for _, c := range cs {
		for _, m := range c.Members {
			if m < 0 || m >= db.Len() || seen[m] {
				t.Fatalf("bad membership %d", m)
			}
			seen[m] = true
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("graph %d unassigned", i)
		}
	}
}

func TestKMedoidsEdgeCases(t *testing.T) {
	if out := kmedoidsT(t, graph.NewDB("e", nil), 2, 100, 1, 0); out != nil {
		t.Error("empty DB should return nil")
	}
	db := clusteredDB(1) // 2 graphs
	cs := kmedoidsT(t, db, 10, 100, 1, 0)
	total := 0
	for _, c := range cs {
		total += c.Len()
	}
	if total != db.Len() {
		t.Errorf("k > n partition broken: %d of %d", total, db.Len())
	}
	// k <= 0 coerced to 1.
	one := kmedoidsT(t, db, 0, 100, 1, 0)
	if len(one) != 1 {
		t.Errorf("k=0 should give one cluster, got %d", len(one))
	}
}

func TestKMedoidsDeterministic(t *testing.T) {
	db := clusteredDB(4)
	a := kmedoidsT(t, db, 2, 2000, 11, 0)
	b := kmedoidsT(t, db, 2, 2000, 11, 0)
	if len(a) != len(b) {
		t.Fatal("nondeterministic cluster count")
	}
	for i := range a {
		if len(a[i].Members) != len(b[i].Members) {
			t.Fatal("nondeterministic membership")
		}
		for j := range a[i].Members {
			if a[i].Members[j] != b[i].Members[j] {
				t.Fatal("nondeterministic members")
			}
		}
	}
}

// TestMCCSDistanceRange checks the distances k-medoids clusters on,
// 1 - ωmccs through the similarity engine: in [0, 1], and 0 on the
// diagonal.
func TestMCCSDistanceRange(t *testing.T) {
	db := clusteredDB(2)
	eng := simcache.New(db.Graphs, simcache.Options{Budget: 2000})
	all := make([]int, db.Len())
	for i := range all {
		all[i] = i
	}
	for j := 0; j < db.Len(); j++ {
		sims, err := eng.BatchCtx(context.Background(), all, j)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range sims {
			v := 1 - s
			if v < 0 || v > 1 {
				t.Fatalf("distance out of range: %v", v)
			}
			if i == j && v != 0 {
				t.Errorf("self distance = %v, want 0", v)
			}
		}
	}
}

package catapult_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	catapult "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
)

// Differential tests for the large-network path: the whole chain —
// streaming load, edge partition, parallel region summarization,
// clustering, CSG closure, MWU selection — must be bit-identical across
// GOMAXPROCS {1, 4, default} and across repeated runs with the same
// seed. Wired into `make diff-race` next to the frozen and engine
// bit-identity suites.

// testNetwork streams a small generated R-MAT network through the text
// loader, exactly as cmd/catapult -network would.
func testNetwork(t *testing.T, seed int64) *catapult.Frozen {
	t.Helper()
	var sb strings.Builder
	if err := dataset.WriteNetworkText(&sb, dataset.NetworkConfig{
		Name: "diff-net", Vertices: 512, Edges: 4000, Labels: 6, Seed: seed,
	}); err != nil {
		t.Fatal(err)
	}
	f, _, err := catapult.LoadNetworkCtx(context.Background(), strings.NewReader(sb.String()), catapult.NetworkLoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func networkConfig(seed int64) catapult.Config {
	return catapult.Config{
		Budget:     core.Budget{EtaMin: 3, EtaMax: 6, Gamma: 5},
		Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: 8, MinSupport: 0.2, MCSBudget: 1500},
		Selection:  core.Options{Walks: 6},
		Seed:       seed,
		Network:    catapult.NetworkOptions{MaxRegionEdges: 64, Reps: 2},
	}
}

func assertSameNetworkResult(t *testing.T, label string, got, want *catapult.NetworkResult) {
	t.Helper()
	if !reflect.DeepEqual(got.Decomposition.Regions, want.Decomposition.Regions) {
		t.Fatalf("%s: decomposition regions diverge", label)
	}
	if got.Decomposition.Reps != want.Decomposition.Reps {
		t.Fatalf("%s: rep counts diverge: %d vs %d", label, got.Decomposition.Reps, want.Decomposition.Reps)
	}
	for i := range got.Decomposition.DB.Graphs {
		if got.Decomposition.DB.Graphs[i].String() != want.Decomposition.DB.Graphs[i].String() {
			t.Fatalf("%s: representative %d diverges", label, i)
		}
	}
	assertSameResult(t, label, got.Result, want.Result)
}

func TestDifferentialNetworkSelect(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	workerCounts := []int{1, 4, prev}

	for seed := int64(1); seed <= 2; seed++ {
		f := testNetwork(t, seed)
		cfg := networkConfig(seed)
		want, err := catapult.SelectNetworkCtx(context.Background(), f, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerCounts {
			runtime.GOMAXPROCS(w)
			got, err := catapult.SelectNetworkCtx(context.Background(), f, cfg)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			assertSameNetworkResult(t, fmt.Sprintf("seed %d workers %d", seed, w), got, want)
		}
	}
}

// TestDifferentialNetworkFormats pins text and binary ingestion to the
// same selection output: a network loaded from its binary dump must
// select the exact pattern set the text-loaded network does.
func TestDifferentialNetworkFormats(t *testing.T) {
	f := testNetwork(t, 3)
	var bin bytes.Buffer
	if err := catapult.WriteNetworkBinary(&bin, f); err != nil {
		t.Fatal(err)
	}
	g, _, err := catapult.LoadNetworkBinaryCtx(context.Background(), &bin, catapult.NetworkLoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := networkConfig(3)
	want, err := catapult.SelectNetworkCtx(context.Background(), f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := catapult.SelectNetworkCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameNetworkResult(t, "text-vs-binary", got, want)
}

// assertSameResult demands byte-identical selection output: clusters,
// effective sizes, CSGs, and patterns with their full score breakdowns.
func assertSameResult(t *testing.T, label string, got, want *catapult.Result) {
	t.Helper()
	if got.Exhausted != want.Exhausted {
		t.Errorf("%s: Exhausted differs: %v vs %v", label, got.Exhausted, want.Exhausted)
	}
	if !reflect.DeepEqual(got.Clusters, want.Clusters) {
		t.Fatalf("%s: clusters diverge\n got:  %v\n want: %v", label, got.Clusters, want.Clusters)
	}
	if !reflect.DeepEqual(got.EffectiveSizes, want.EffectiveSizes) {
		t.Errorf("%s: effective sizes diverge", label)
	}
	if len(got.CSGs) != len(want.CSGs) {
		t.Fatalf("%s: CSG counts differ: %d vs %d", label, len(got.CSGs), len(want.CSGs))
	}
	for i := range got.CSGs {
		if got.CSGs[i].G.String() != want.CSGs[i].G.String() ||
			!reflect.DeepEqual(got.CSGs[i].Members, want.CSGs[i].Members) {
			t.Errorf("%s: CSG %d diverges", label, i)
		}
	}
	if len(got.Patterns) != len(want.Patterns) {
		t.Fatalf("%s: pattern counts differ: %d vs %d", label, len(got.Patterns), len(want.Patterns))
	}
	for i := range got.Patterns {
		pa, pb := got.Patterns[i], want.Patterns[i]
		if pa.Graph.String() != pb.Graph.String() {
			t.Errorf("%s: pattern %d differs:\n got:  %v\n want: %v", label, i, pa.Graph, pb.Graph)
		}
		if pa.Score != pb.Score || pa.Ccov != pb.Ccov || pa.Lcov != pb.Lcov ||
			pa.Div != pb.Div || pa.Cog != pb.Cog || pa.SourceCSG != pb.SourceCSG {
			t.Errorf("%s: pattern %d breakdown differs:\n got:  %+v\n want: %+v", label, i, *pa, *pb)
		}
	}
}

// Package oracle holds the independent reference implementations the
// differential tests compare the production matchers against: the
// map-graph MCS/MCCS search (the frozen searcher in internal/mcs must
// explore its exact search tree), the map-graph VF2 search and its
// matching order (the frozen subiso.Matcher and graph.Frozen.MatchingOrder
// must reproduce them), sequential per-host containment verdicts (what the
// memoized, index-pruned, parallel internal/cover engine must answer), and
// a sequential, uncached similarity loop over canonical representatives
// (what the memoized, parallel internal/simcache engine must answer). It
// also holds the golden-file format (Run) of the pipeline-level tests.
//
// Every function is sequential, uncached and option-free. Only _test.go
// files may import this package; a guard test in the module root fails
// when a production file does.
package oracle

import (
	"context"
	"fmt"

	"repro/internal/canon"
	"repro/internal/graph"
	"repro/internal/mcs"
)

// Verdicts returns, for every host in order, whether it contains p: one
// Contains call per host, no pruning, no memo, no parallelism.
func Verdicts(hosts []*graph.Graph, p *graph.Graph) []bool {
	out := make([]bool, len(hosts))
	for i, h := range hosts {
		out[i] = Contains(h, p)
	}
	return out
}

// Similarities returns the similarity of (graphs[m], graphs[target]) for
// every m in members, in member order, searching every pair sequentially
// with the map-graph MCS/MCCS search. Like the production engine, a pair
// is evaluated on the canonical representatives of its two graphs (graphs
// decoded from their canonical strings), lower key first; graphs that are
// empty, have more than maxCanonV vertices, or carry labels the canonical
// encoding cannot round-trip are keyed by index and represent themselves.
func Similarities(ctx context.Context, graphs []*graph.Graph, kind mcs.Kind, budget, maxCanonV int, members []int, target int) ([]float64, error) {
	keyOf := func(i int) (string, *graph.Graph) {
		g := graphs[i]
		if g.NumVertices() == 0 || g.NumVertices() > maxCanonV || !canon.Reconstructible(g) {
			return fmt.Sprintf("id:%d", i), g
		}
		k := canon.String(g)
		rep, err := canon.Reconstruct(k)
		if err != nil {
			return fmt.Sprintf("id:%d", i), g
		}
		return k, rep
	}
	kt, rt := keyOf(target)
	out := make([]float64, len(members))
	for idx, m := range members {
		km, rm := keyOf(m)
		lo, hi := rm, rt
		if kt < km {
			lo, hi = rt, rm
		}
		v, err := SimilarityCtx(ctx, kind, lo, hi, budget)
		if err != nil {
			return nil, err
		}
		out[idx] = v
	}
	return out, nil
}

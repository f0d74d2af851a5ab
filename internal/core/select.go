package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/canon"
	"repro/internal/graph"
	"repro/internal/pipeline"
	"repro/internal/resilience"
)

// SelectCtx runs Algorithm 4 — greedy, one canned pattern per iteration,
// until the budget γ is met or no scoring candidate remains — with
// cooperative cancellation and tracing. The greedy
// loop checks stdctx at every iteration boundary, and cancellation also
// propagates into candidate generation (between walks), scoring (VF2 /
// pruned-GED searches) and the weight update. The whole phase is reported
// to the context's pipeline tracer as StageSelect, with candidates counted
// as generated (every non-nil proposal), rejected (isomorphic duplicates)
// and accepted (patterns added to the result). On cancellation it returns
// (nil, stdctx.Err()) — no partial pattern set.
//
// Under a resilience controller, selection is an anytime algorithm: a
// soft-budget overrun or salvageable cancellation stops the MWU rounds
// early and returns the patterns selected so far (every completed round
// leaves a valid, budget-respecting prefix), and a panic inside a round is
// contained as a stage fault that likewise ends selection with the current
// prefix. Only explicit user cancellation and validation errors still
// return an error.
func SelectCtx(stdctx context.Context, ctx *Context, b Budget, opts Options) (*Result, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	opts.defaults()
	stdctx, endStage := pipeline.Scope(stdctx, pipeline.StageSelect)
	defer endStage()
	tr := pipeline.From(stdctx)
	anytime := resilience.From(stdctx) != nil
	rng := rand.New(rand.NewSource(opts.Seed))

	res := &Result{}
	sizeCount := make(map[int]int)
	var selectedGraphs []*graph.Graph
	selectedSeen := make(map[string]struct{}) // canonical forms of selected patterns

	stopEarly := func(why string) {
		resilience.Count(stdctx, "select_rounds", int64(res.Iterations))
		resilience.Degraded(stdctx, fmt.Sprintf("selection stopped after %d/%d patterns (%s)", len(res.Patterns), b.Gamma, why))
	}

	for len(res.Patterns) < b.Gamma {
		if err := stdctx.Err(); err != nil {
			if cause := context.Cause(stdctx); cause != nil {
				err = cause
			}
			if anytime && resilience.Salvageable(err) {
				stopEarly("deadline")
				break
			}
			return nil, err
		}
		if anytime && resilience.Overrun(stdctx) {
			stopEarly("soft budget")
			break
		}

		// One greedy MWU round. It appends at most one pattern and runs
		// under a panic guard so a poisoned candidate degrades selection to
		// the prefix built so far instead of crashing the process; roundErr
		// carries cancellation out of generation/scoring, exhausted marks
		// true candidate exhaustion.
		var roundErr error
		exhausted := false
		fault := resilience.Guard(stdctx, pipeline.StageSelect, func() {
			res.Iterations++

			sizes := openSizes(b, sizeCount)
			if len(sizes) == 0 {
				exhausted = true
				return
			}

			// Candidate generation: each (CSG, size) proposes one candidate
			// (the random-walk FCP of Algorithm 4, or the greedy-BFS candidate
			// under the DaVinci ablation). Candidates isomorphic to an
			// earlier candidate or to an already-selected pattern are dropped
			// via canonical forms.
			type candidate struct {
				p      *graph.Graph
				source int
			}
			var cands []candidate
			seen := make(map[string]struct{})
			for _, ci := range ctx.proposingCSGs(opts.TopCSGs) {
				c := ctx.CSGs[ci]
				for _, eta := range sizes {
					var p *graph.Graph
					if opts.BFSCandidates {
						p = ctx.GenerateBFSCandidate(c, eta)
					} else {
						var err error
						p, err = ctx.GenerateFCPCtx(stdctx, c, eta, opts.Walks, rng)
						if err != nil {
							roundErr = err
							return
						}
					}
					if p == nil {
						continue
					}
					tr.Add(pipeline.CounterCandidatesGenerated, 1)
					cf := canon.String(p)
					if _, dup := seen[cf]; dup {
						tr.Add(pipeline.CounterCandidatesRejected, 1)
						continue
					}
					if _, dup := selectedSeen[cf]; dup {
						tr.Add(pipeline.CounterCandidatesRejected, 1)
						continue
					}
					seen[cf] = struct{}{}
					cands = append(cands, candidate{p, ci})
				}
			}
			if len(cands) == 0 {
				exhausted = true
				return
			}

			// Score and pick the best.
			best := -1
			var bestPattern *Pattern
			for i, c := range cands {
				score, ccov, lcov, div, cog, err := ctx.scoreWithCtx(stdctx, c.p, selectedGraphs, opts)
				if err != nil {
					roundErr = err
					return
				}
				if score <= 0 {
					continue
				}
				if best < 0 || score > bestPattern.Score {
					best = i
					bestPattern = &Pattern{
						Graph: c.p, Score: score,
						Ccov: ccov, Lcov: lcov, Div: div, Cog: cog,
						SourceCSG: c.source,
					}
				}
			}
			if best < 0 {
				exhausted = true
				return
			}

			res.Patterns = append(res.Patterns, bestPattern)
			tr.Add(pipeline.CounterCandidatesAccepted, 1)
			selectedGraphs = append(selectedGraphs, bestPattern.Graph)
			selectedSeen[canon.String(bestPattern.Graph)] = struct{}{}
			sizeCount[bestPattern.Size()]++
			if err := ctx.updateWeightsCtx(stdctx, bestPattern.Graph); err != nil {
				roundErr = err
				return
			}
		})
		if fault != nil {
			stopEarly("contained panic")
			break
		}
		if roundErr != nil {
			if anytime && resilience.Salvageable(roundErr) {
				stopEarly("deadline")
				break
			}
			return nil, roundErr
		}
		if exhausted {
			res.Exhausted = true
			break
		}
	}
	return res, nil
}

// openSizes returns the pattern sizes whose quota is not yet exhausted
// (GetPatternSizeRange in Algorithm 4).
func openSizes(b Budget, counts map[int]int) []int {
	var out []int
	for k := b.EtaMin; k <= b.EtaMax; k++ {
		if counts[k] < b.quota(k) {
			out = append(out, k)
		}
	}
	return out
}

// proposingCSGs returns the CSG indices allowed to propose candidates this
// iteration: all of them, or the top-k by current cluster weight.
func (ctx *Context) proposingCSGs(top int) []int {
	idx := make([]int, len(ctx.CSGs))
	for i := range idx {
		idx[i] = i
	}
	if top <= 0 || top >= len(idx) {
		return idx
	}
	sort.Slice(idx, func(a, b int) bool {
		if ctx.cw[idx[a]] != ctx.cw[idx[b]] {
			return ctx.cw[idx[a]] > ctx.cw[idx[b]]
		}
		return idx[a] < idx[b]
	})
	out := idx[:top]
	sort.Ints(out)
	return out
}

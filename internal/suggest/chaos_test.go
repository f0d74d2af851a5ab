package suggest

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/pipeline"
	"repro/internal/resilience"
)

// chaosEngine builds an engine with enough patterns that both the verify
// and the rank phases do real work to inject faults into.
func chaosEngine() *Engine {
	var ps []*core.Pattern
	labels := [][]string{
		{"A", "B", "C"}, {"A", "B", "C", "D"}, {"B", "C", "D"},
		{"A", "C", "B"}, {"C", "D", "E"}, {"A", "B", "E"},
		{"D", "E", "F"}, {"A", "B", "C", "E"},
	}
	for i, ls := range labels {
		ps = append(ps, pat(path(ls...), float64(i+1)/10))
	}
	return ps2engine(ps)
}

func ps2engine(ps []*core.Pattern) *Engine { return NewEngine(ps) }

// checkValid asserts a degraded result is still a well-formed ranked
// prefix: in-range pattern indices, no duplicates, contained-before-miss
// ordering.
func checkValid(t *testing.T, e *Engine, res *Result) {
	t.Helper()
	seen := make(map[int]bool)
	misses := false
	for _, s := range res.Suggestions {
		if s.Pattern < 0 || s.Pattern >= e.NumPatterns() {
			t.Fatalf("suggestion pattern %d out of range [0,%d)", s.Pattern, e.NumPatterns())
		}
		if seen[s.Pattern] {
			t.Fatalf("duplicate suggestion for pattern %d", s.Pattern)
		}
		seen[s.Pattern] = true
		if s.Contained && misses {
			t.Fatal("contained suggestion ranked after a near-miss")
		}
		if !s.Contained {
			misses = true
		}
	}
	if len(res.Suggestions) > res.Stats.Ranked && res.Stats.Ranked > 0 {
		t.Fatalf("returned %d suggestions but ranked only %d", len(res.Suggestions), res.Stats.Ranked)
	}
}

// TestChaosSuggestStallInRankingReturnsPrefix stalls the ranking loop past
// the keystroke budget after two candidates: the call must return the
// prefix ranked so far, degraded but valid — never an error, never a
// block until the stall would have "finished" naturally.
func TestChaosSuggestStallInRankingReturnsPrefix(t *testing.T) {
	eng := chaosEngine()
	inj := faultinject.New().StallAfter(pipeline.CounterSuggestRanked, 2, 400*time.Millisecond)
	ctx := pipeline.WithTrace(context.Background(), inj)
	res, err := eng.SuggestCtx(ctx, path("A", "B"), Options{Budget: 60 * time.Millisecond, TopK: 8})
	if err != nil {
		t.Fatalf("stalled keystroke must not error, got %v", err)
	}
	if got := inj.Fired(); len(got) != 1 {
		t.Fatalf("injected stall did not fire: %v", got)
	}
	if !res.Stats.Degraded {
		t.Errorf("stats = %+v, want degraded after mid-rank stall", res.Stats)
	}
	if res.Stats.Ranked < 1 || res.Stats.Ranked >= eng.NumPatterns() {
		t.Errorf("ranked = %d, want a proper prefix of %d candidates", res.Stats.Ranked, eng.NumPatterns())
	}
	if len(res.Suggestions) == 0 {
		t.Error("prefix degradation returned no suggestions at all")
	}
	checkValid(t, eng, res)
}

// TestChaosSuggestStallInVerifyDegradesToUnverified stalls the first VF2
// containment search past the keystroke budget: verification is abandoned
// and the call degrades to ranking the pruned-but-unverified candidate
// set — still suggestions, still no error.
func TestChaosSuggestStallInVerifyDegradesToUnverified(t *testing.T) {
	eng := chaosEngine()
	inj := faultinject.New().StallAfter(pipeline.CounterVF2Calls, 1, 300*time.Millisecond)
	ctx := pipeline.WithTrace(context.Background(), inj)
	res, err := eng.SuggestCtx(ctx, path("A", "B"), Options{Budget: 50 * time.Millisecond, TopK: 8})
	if err != nil {
		t.Fatalf("stalled verification must not error, got %v", err)
	}
	if got := inj.Fired(); len(got) != 1 {
		t.Fatalf("injected stall did not fire: %v", got)
	}
	if res.Stats.Verified {
		t.Error("verification reported complete despite the stall")
	}
	if !res.Stats.Degraded {
		t.Errorf("stats = %+v, want degraded", res.Stats)
	}
	checkValid(t, eng, res)
}

// TestChaosSuggestVerifyFinishingLateDegrades stalls the verification
// batch after every VF2 search has answered, past the keystroke budget:
// the verdicts come back complete but late, which must be reported as
// suggest_verify_budget degradation, never as a completed verification.
func TestChaosSuggestVerifyFinishingLateDegrades(t *testing.T) {
	eng := chaosEngine()
	inj := faultinject.New().StallAfter(pipeline.CounterCoverMisses, 1, 300*time.Millisecond)
	ctx := pipeline.WithTrace(context.Background(), inj)
	res, err := eng.SuggestCtx(ctx, path("A", "B"), Options{Budget: 50 * time.Millisecond, TopK: 8})
	if err != nil {
		t.Fatalf("late verification must not error, got %v", err)
	}
	if got := inj.Fired(); len(got) != 1 {
		t.Fatalf("injected stall did not fire: %v", got)
	}
	if res.Stats.Verified {
		t.Error("verification reported complete although it finished after the deadline")
	}
	if !res.Stats.Degraded || res.Stats.DegradeReason != "suggest_verify_budget" {
		t.Errorf("stats = %+v, want suggest_verify_budget degradation", res.Stats)
	}
	checkValid(t, eng, res)
}

// TestChaosSuggestWorkerPanicContainedAsStageFault panics inside a VF2
// verification worker: the fault must surface as a typed
// *resilience.StageFault on the result — attributed, with the injected
// payload preserved — while the keystroke still answers with degraded
// (unverified) suggestions.
func TestChaosSuggestWorkerPanicContainedAsStageFault(t *testing.T) {
	eng := chaosEngine()
	inj := faultinject.New().PanicAfter(pipeline.CounterVF2Calls, 1, "poisoned pattern graph")
	ctx := pipeline.WithTrace(context.Background(), inj)
	res, err := eng.SuggestCtx(ctx, path("A", "B"), Options{Budget: 2 * time.Second, TopK: 8})
	if err != nil {
		t.Fatalf("contained worker panic must not error, got %v", err)
	}
	if got := inj.Fired(); len(got) != 1 {
		t.Fatalf("injected panic did not fire: %v", got)
	}
	if len(res.Faults) != 1 || res.Stats.Faults != 1 {
		t.Fatalf("faults = %d (stats %d), want exactly 1 typed fault", len(res.Faults), res.Stats.Faults)
	}
	f := res.Faults[0]
	var p *faultinject.Panic
	if !asPanic(f.Value, &p) {
		t.Errorf("fault value %T does not carry the injected *faultinject.Panic", f.Value)
	}
	if res.Stats.Verified {
		t.Error("verification reported complete despite the contained panic")
	}
	if !res.Stats.Degraded {
		t.Errorf("stats = %+v, want degraded", res.Stats)
	}
	if len(res.Suggestions) == 0 {
		t.Error("panic containment returned no suggestions at all")
	}
	checkValid(t, eng, res)
}

// asPanic digs the injected payload out of a recovered panic value.
func asPanic(v any, out **faultinject.Panic) bool {
	switch x := v.(type) {
	case *faultinject.Panic:
		*out = x
		return true
	case *resilience.StageFault:
		return asPanic(x.Value, out)
	case error:
		return errors.As(x, out)
	}
	return false
}

// TestChaosSuggestUnbudgetedStaysClean runs the same engine unbudgeted
// with no injector: nothing may degrade, and the full candidate set must
// rank — the baseline the chaos runs above are prefixes of.
func TestChaosSuggestUnbudgetedStaysClean(t *testing.T) {
	eng := chaosEngine()
	res, err := eng.SuggestCtx(context.Background(), path("A", "B"), Options{Budget: -1, TopK: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Degraded || !res.Stats.Verified {
		t.Errorf("stats = %+v, want verified and undegraded", res.Stats)
	}
	if res.Stats.Ranked != eng.NumPatterns() {
		t.Errorf("ranked = %d, want all %d", res.Stats.Ranked, eng.NumPatterns())
	}
	checkValid(t, eng, res)
}

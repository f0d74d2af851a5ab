// The open-loop load generator: a seeded schedule of due times, executed
// by a fixed pool of workers whose latency clock starts at each request's
// due time, so time a request spends queued behind a slow one counts.
package main

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"time"
)

type opKind int

const (
	opKeystroke opKind = iota
	opPanel
	opSearch
	opRefresh
)

func (k opKind) String() string {
	return [...]string{"keystroke", "panel", "search", "refresh"}[k]
}

// event is one scheduled request. Seq numbers the events of one kind in
// due order. Body is the request body of a keystroke (the partial) or a
// search (the target), and Target the user's target for either.
type event struct {
	Due    time.Duration
	Kind   opKind
	Seq    int
	Body   []byte
	Target int
}

// scheduleSpec shapes a schedule: the users' requests over Window, and
// refreshes every RefreshEvery (jittered by up to a tenth of the period),
// starting half a period in.
type scheduleSpec struct {
	Window       time.Duration
	RefreshEvery time.Duration
}

// makeSchedule returns the events of spec in due order: what users does
// over the window, plus the refreshes. The same users, seed and spec always
// give the same schedule.
func makeSchedule(users *population, seed int64, spec scheduleSpec) ([]event, error) {
	evs, err := users.play(spec.Window, nil)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	if p := spec.RefreshEvery; p > 0 {
		for t := p / 2; t < spec.Window; t += p {
			jitter := time.Duration(rng.Int63n(int64(p/10) + 1))
			evs = append(evs, event{Due: t + jitter, Kind: opRefresh})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Due < evs[j].Due })
	seq := map[opKind]int{}
	for i := range evs {
		evs[i].Seq = seq[evs[i].Kind]
		seq[evs[i].Kind]++
	}
	return evs, nil
}

// timing is what the generator measured for one event: Lag is how late
// the dispatcher released it (the harness's own delay), Latency runs from
// the due time to the end of the request, queueing included.
type timing struct {
	Lag     time.Duration
	Latency time.Duration
}

// runOpenLoop releases each event at its due time after start and executes
// it on one of workers goroutines; do(i) performs events[i]. It returns
// one timing per event. Events still queued when ctx ends are not run and
// keep a zero timing.
func runOpenLoop(ctx context.Context, events []event, workers int, do func(ctx context.Context, i int)) []timing {
	timings := make([]timing, len(events))
	// Room for every event: the dispatcher never blocks on busy workers, so
	// a stall delays only the requests, not their release.
	queue := make(chan int, len(events))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				if ctx.Err() != nil {
					continue
				}
				do(ctx, i)
				timings[i].Latency = time.Since(start) - events[i].Due
			}
		}()
	}
	timer := time.NewTimer(0)
	<-timer.C
	for i, ev := range events {
		if wait := ev.Due - time.Since(start); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		timings[i].Lag = time.Since(start) - ev.Due
		queue <- i
	}
	close(queue)
	wg.Wait()
	return timings
}

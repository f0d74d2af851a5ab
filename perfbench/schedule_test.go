package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	catapult "repro"
	"repro/internal/dataset"
	"repro/internal/subiso"
)

func testPopulation(t *testing.T, users int, seed int64) *population {
	t.Helper()
	targets := dataset.Queries(dataset.AIDSLike(30, 1), 20, 4, 12, 1)
	p, err := newPopulation(targets, users, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestScheduleIsSeededAndOrdered(t *testing.T) {
	const users = 40
	spec := scheduleSpec{Window: 30 * time.Second, RefreshEvery: 10 * time.Second}
	schedule := func(seed int64) []event {
		evs, err := makeSchedule(testPopulation(t, users, seed), seed, spec)
		if err != nil {
			t.Fatal(err)
		}
		return evs
	}
	a := schedule(5)
	if !reflect.DeepEqual(a, schedule(5)) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(6)) {
		t.Fatal("different seeds gave the same schedule")
	}
	count := map[opKind]int{}
	for i, ev := range a {
		if i > 0 && ev.Due < a[i-1].Due {
			t.Fatalf("event %d due before its predecessor", i)
		}
		if ev.Due < 0 || ev.Due >= spec.Window+spec.RefreshEvery/10 {
			t.Fatalf("event %d due at %v, outside the window", i, ev.Due)
		}
		if ev.Seq != count[ev.Kind] {
			t.Fatalf("event %d: %v seq %d, want %d", i, ev.Kind, ev.Seq, count[ev.Kind])
		}
		count[ev.Kind]++
		if ev.Kind == opKeystroke || ev.Kind == opSearch {
			db, err := catapult.ReadDB(bytes.NewReader(ev.Body), "body")
			if err != nil || db.Len() != 1 || db.Graph(0).NumEdges() == 0 {
				t.Fatalf("event %d: %v body is not one non-empty graph (%v)", i, ev.Kind, err)
			}
		}
	}
	// usersim's per-action times lie in [0.9, 2.9] s and a keystroke
	// takes one to three actions.
	userSeconds := users * spec.Window.Seconds()
	if k := float64(count[opKeystroke]); k < userSeconds/9 || k > userSeconds/0.9 {
		t.Errorf("%v keystrokes from %d users in %v, outside the user model's pace", k, users, spec.Window)
	}
	if count[opSearch] == 0 || count[opPanel] != count[opSearch] {
		t.Errorf("%d searches and %d panel reads: every completed target is searched and opens the next", count[opSearch], count[opPanel])
	}
	if r := count[opRefresh]; r != 3 {
		t.Errorf("%d refreshes in 30s every 10s, want 3", r)
	}
}

// The saturation phase continues the users past the window: its partials
// are fresh ones that embed in the user's target, however many it takes.
func TestNextKeystrokeContinuesUsers(t *testing.T) {
	p := testPopulation(t, 4, 1)
	evs, err := makeSchedule(p, 1, scheduleSpec{Window: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10*len(evs)+100; i++ {
		in, err := p.nextKeystroke()
		if err != nil {
			t.Fatal(err)
		}
		db, err := catapult.ReadDB(bytes.NewReader(in.body), "partial")
		if err != nil || db.Len() != 1 {
			t.Fatalf("keystroke %d: body is not one graph (%v)", i, err)
		}
		if !subiso.Contains(p.graphs[in.target], db.Graph(0)) {
			t.Fatalf("keystroke %d: partial does not embed in its target", i)
		}
	}
}

// A server that stalls the first request must show up in the latency of
// every request queued behind it: latency runs from the due time, not from
// when a connection became free.
func TestOpenLoopLatencyIncludesQueueing(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()

	events := make([]event, 10)
	for i := range events {
		events[i] = event{Due: time.Duration(i) * 10 * time.Millisecond, Kind: opKeystroke, Seq: i}
	}
	client := srv.Client()
	timings := runOpenLoop(context.Background(), events, 1, func(ctx context.Context, i int) {
		resp, err := client.Get(srv.URL)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
	})
	for i, tm := range timings {
		if floor := stall - events[i].Due; tm.Latency < floor {
			t.Errorf("request %d: latency %v excludes the wait behind the stalled request (want >= %v)", i, tm.Latency, floor)
		}
		if tm.Lag > 100*time.Millisecond {
			t.Errorf("request %d: dispatch lag %v; the stall must not delay dispatch", i, tm.Lag)
		}
	}
}

package main

import (
	"context"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/serve/loadtest"
)

// TestGracefulDrainZeroFailures runs the full serve lifecycle against a
// live loadtest fleet: warm-startable state-backed server, sustained
// traffic, then the load-balancer drain sequence — traffic stops, the
// shutdown signal lands, in-flight requests complete, the final snapshot
// flushes. The fleet must observe zero request failures and zero
// consistency violations across the whole transition, and the flushed
// state must warm-start a successor serving the identical pattern set.
func TestGracefulDrainZeroFailures(t *testing.T) {
	db := dataset.AIDSLike(20, 3)
	stateDir := t.TempDir()
	reg := metrics.NewRegistry()
	srv, m, recovery, err := buildServer(context.Background(), db, testConfig(), reg, stateDir)
	if err != nil {
		t.Fatal(err)
	}
	if recovery.Outcome() != "cold" {
		t.Fatalf("first start outcome %q, want cold", recovery.Outcome())
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	flushed := make(chan uint64, 1)
	served := make(chan error, 1)
	go func() {
		served <- gracefulServe(ln, srv, stop, 5*time.Second, func(ctx context.Context) error {
			gen, err := m.PersistNow(ctx)
			if err == nil {
				flushed <- gen
			}
			return err
		})
	}()

	// A fleet hammers the server; mid-run the drain sequence fires: new
	// traffic stops, then the shutdown signal arrives while requests may
	// still be in flight.
	stopLoad := make(chan struct{})
	go func() {
		time.Sleep(600 * time.Millisecond)
		close(stopLoad)
		time.Sleep(50 * time.Millisecond)
		stop <- os.Interrupt
	}()
	res, err := loadtest.Run(context.Background(), loadtest.Options{
		BaseURL:  "http://" + ln.Addr().String(),
		Users:    12,
		Seed:     9,
		Duration: 10 * time.Second, // Stop ends the run long before this
		Stop:     stopLoad,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatal("fleet issued no requests before the drain")
	}
	if res.Errors != 0 {
		t.Fatalf("%d of %d requests failed across the drain (first: %s)",
			res.Errors, res.Requests, res.FirstError)
	}
	if !res.Consistent() {
		t.Fatalf("consistency violations during drain: torn=%d regressed=%d",
			res.TornReads, res.VersionRegressions)
	}

	if err := <-served; err != nil {
		t.Fatalf("gracefulServe: %v", err)
	}
	select {
	case gen := <-flushed:
		if gen == 0 {
			t.Fatal("flush reported generation 0")
		}
	default:
		t.Fatal("final snapshot flush did not run")
	}

	// The flushed state warm-starts a successor serving the same patterns.
	reg2 := metrics.NewRegistry()
	_, m2, recovery2, err := buildServer(context.Background(), db, testConfig(), reg2, stateDir)
	if err != nil {
		t.Fatal(err)
	}
	if recovery2.Outcome() != "clean" {
		t.Fatalf("restart outcome %q, want clean", recovery2.Outcome())
	}
	if len(m2.Patterns()) != len(m.Patterns()) {
		t.Fatalf("restarted server has %d patterns, want %d", len(m2.Patterns()), len(m.Patterns()))
	}
	for i, p := range m2.Patterns() {
		if p.Graph.String() != m.Patterns()[i].Graph.String() {
			t.Fatalf("restarted pattern %d differs", i)
		}
	}
}

// The gui-session workload: the real cmd/guiserve binary in -serve
// -state-dir mode as a child process on loopback, driven by one open-loop
// generator over at most nproc connections.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	catapult "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/queryform"
	"repro/internal/subiso"
)

// guiSpec sizes the gui-session workload.
var guiSpec = struct {
	Graphs          int
	Budget          catapult.Budget
	DBSeeds         []int64       // one session slice per served dataset, each on a fresh server
	Targets         int           // distinct formulation targets users draw from
	Users           int           // concurrently formulating users; their pacing comes from usersim
	BatchGraphs     int           // graphs per refresh batch
	OpenShare       float64       // share of each slice spent in the open-loop phase
	KeystrokeTop    int           // ?k= of every keystroke
	KeystrokeBudget time.Duration // answer time that counts toward capacity
}{
	Graphs:          200,
	Budget:          catapult.Budget{EtaMin: 3, EtaMax: 8, Gamma: 10},
	DBSeeds:         []int64{1, 2, 3},
	Targets:         100,
	Users:           70,
	BatchGraphs:     10,
	OpenShare:       0.75,
	KeystrokeTop:    5,
	KeystrokeBudget: 100 * time.Millisecond,
}

// server is one guiserve child process.
type server struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan error
}

// startServer launches guiserve over dbPath with durable state in
// stateDir and waits for its first healthy /healthz; it returns the cold
// start time from exec to that answer.
func startServer(ctx context.Context, bin, dbPath, stateDir string, seed int64, logPath string) (*server, time.Duration, error) {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	b := guiSpec.Budget
	cmd := exec.Command(bin, "-serve", "-in", dbPath, "-state-dir", stateDir, "-addr", addr,
		"-min", strconv.Itoa(b.EtaMin), "-max", strconv.Itoa(b.EtaMax), "-gamma", strconv.Itoa(b.Gamma),
		"-seed", strconv.FormatInt(seed, 10))
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()

	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			s.stop()
			return nil, 0, fmt.Errorf("guiserve exited before healthy (%v); log in %s", err, logPath)
		case <-ctx.Done():
			s.stop()
			return nil, 0, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("guiserve not healthy after 120s; log in %s", logPath)
		}
	}
}

// stop sends SIGTERM, waits for the graceful drain and final snapshot, and
// kills the process if it has not exited after 20s. It returns the
// process's exit error.
func (s *server) stop() error {
	defer s.log.Close()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		return err
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return errors.New("guiserve ignored SIGTERM for 20s and was killed")
	}
}

func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// sessionState is what the client observed, shared by the workers.
type sessionState struct {
	client  *http.Client
	base    string
	users   *population
	batches [][]byte
	batchN  []int

	maxVersion atomic.Uint64 // highest snapshot version acknowledged so far

	mu        sync.Mutex
	rep       *report
	embeds    map[string]bool // (target, pattern text) → pattern embeds in target
	refreshes []catapult.ServeStats
	degraded  int
	hits      int
	answered  int // keystrokes answered 200
}

func (s *sessionState) observeVersion(v uint64) {
	for {
		cur := s.maxVersion.Load()
		if v <= cur || s.maxVersion.CompareAndSwap(cur, v) {
			return
		}
	}
}

// call performs one request and returns its body on 200.
func (s *sessionState) call(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, data)
	}
	return data, nil
}

// versionCheck enforces that a response reflects every version that was
// acknowledged before its request was sent.
func versionCheck(kind string, got, floor uint64) error {
	if got < floor {
		return fmt.Errorf("%s: snapshot version %d went back behind acknowledged %d", kind, got, floor)
	}
	return nil
}

// keystroke posts one partial and checks the answer; it reports whether
// the answer was undegraded.
func (s *sessionState) keystroke(ctx context.Context, in keystrokeInput) (undegraded bool, err error) {
	floor := s.maxVersion.Load()
	data, err := s.call(ctx, http.MethodPost, fmt.Sprintf("/v1/suggest?k=%d", guiSpec.KeystrokeTop), in.body)
	if err != nil {
		return false, err
	}
	var sr catapult.ServeSuggestResponse
	if err := checkSuggestResponse(data, &sr); err != nil {
		return false, err
	}
	if err := versionCheck("suggest", sr.Stats.Version, floor); err != nil {
		return false, err
	}
	s.observeVersion(sr.Stats.Version)
	hit := false
	if len(sr.Suggestions) > 0 && sr.Suggestions[0].Contained {
		hit = s.embedsTarget(in.target, sr.Suggestions[0].Text)
	}
	s.mu.Lock()
	s.answered++
	if sr.Suggest.Degraded {
		s.degraded++
	}
	if hit {
		s.hits++
	}
	s.mu.Unlock()
	return !sr.Suggest.Degraded, nil
}

// checkSuggestResponse decodes a /v1/suggest body and applies the
// consistency rules: every suggestion indexes a pattern of the answering
// snapshot and carries its text.
func checkSuggestResponse(data []byte, sr *catapult.ServeSuggestResponse) error {
	if err := json.Unmarshal(data, sr); err != nil {
		return fmt.Errorf("suggest: torn response: %w", err)
	}
	if len(sr.Suggestions) > guiSpec.KeystrokeTop {
		return fmt.Errorf("suggest: %d suggestions for k=%d", len(sr.Suggestions), guiSpec.KeystrokeTop)
	}
	for _, sg := range sr.Suggestions {
		if sg.Pattern < 0 || sg.Pattern >= sr.Stats.Patterns || sg.Text == "" {
			return fmt.Errorf("suggest: suggestion of pattern %d invalid for a %d-pattern snapshot", sg.Pattern, sr.Stats.Patterns)
		}
	}
	return nil
}

// embedsTarget reports whether the suggested pattern embeds into the
// user's target, memoized per (target, pattern).
func (s *sessionState) embedsTarget(target int, text string) bool {
	key := strconv.Itoa(target) + "\x00" + text
	s.mu.Lock()
	v, ok := s.embeds[key]
	s.mu.Unlock()
	if ok {
		return v
	}
	pdb, err := catapult.ReadDB(strings.NewReader(text), "suggested")
	v = err == nil && pdb.Len() == 1 && subiso.Contains(s.users.graphs[target], pdb.Graph(0))
	s.mu.Lock()
	s.embeds[key] = v
	s.mu.Unlock()
	return v
}

func (s *sessionState) panel(ctx context.Context) error {
	floor := s.maxVersion.Load()
	data, err := s.call(ctx, http.MethodGet, "/v1/patterns", nil)
	if err != nil {
		return err
	}
	var pr catapult.ServePatternsResponse
	if err := checkPanelResponse(data, &pr); err != nil {
		return err
	}
	if err := versionCheck("patterns", pr.Stats.Version, floor); err != nil {
		return err
	}
	s.observeVersion(pr.Stats.Version)
	return nil
}

// checkPanelResponse decodes a /v1/patterns body: the panel must agree
// with its own stats and every pattern text must parse as one graph.
func checkPanelResponse(data []byte, pr *catapult.ServePatternsResponse) error {
	if err := json.Unmarshal(data, pr); err != nil {
		return fmt.Errorf("patterns: torn response: %w", err)
	}
	if len(pr.Patterns) != pr.Stats.Patterns {
		return fmt.Errorf("patterns: %d patterns but stats say %d", len(pr.Patterns), pr.Stats.Patterns)
	}
	for _, pv := range pr.Patterns {
		if db, err := catapult.ReadDB(strings.NewReader(pv.Text), "p"); err != nil || db.Len() != 1 {
			return fmt.Errorf("patterns: pattern %d text does not parse as one graph", pv.Index)
		}
	}
	return nil
}

func (s *sessionState) search(ctx context.Context, q []byte) error {
	floor := s.maxVersion.Load()
	data, err := s.call(ctx, http.MethodPost, "/v1/search", q)
	if err != nil {
		return err
	}
	var sr catapult.ServeSearchResponse
	if err := checkSearchResponse(data, &sr); err != nil {
		return err
	}
	if err := versionCheck("search", sr.Stats.Version, floor); err != nil {
		return err
	}
	s.observeVersion(sr.Stats.Version)
	return nil
}

// checkSearchResponse decodes a /v1/search body: the match count agrees
// with the hit list and every hit indexes a graph of the snapshot.
func checkSearchResponse(data []byte, sr *catapult.ServeSearchResponse) error {
	if err := json.Unmarshal(data, sr); err != nil {
		return fmt.Errorf("search: torn response: %w", err)
	}
	if sr.Matches != len(sr.Graphs) {
		return fmt.Errorf("search: %d matches but %d hits listed", sr.Matches, len(sr.Graphs))
	}
	for _, g := range sr.Graphs {
		if g < 0 || g >= sr.Stats.Graphs {
			return fmt.Errorf("search: hit %d outside a %d-graph snapshot", g, sr.Stats.Graphs)
		}
	}
	return nil
}

func (s *sessionState) refresh(ctx context.Context, seq int) error {
	batch := seq % len(s.batches)
	data, err := s.call(ctx, http.MethodPost, "/v1/tenants/"+catapult.ServeDefaultTenant+"/refresh", s.batches[batch])
	if err != nil {
		return err
	}
	var rr catapult.ServeRefreshResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		return fmt.Errorf("refresh: torn response: %w", err)
	}
	if rr.Added != s.batchN[batch] {
		return fmt.Errorf("refresh: added %d graphs of a %d-graph batch", rr.Added, s.batchN[batch])
	}
	s.observeVersion(rr.Stats.Version)
	s.mu.Lock()
	s.refreshes = append(s.refreshes, rr.Stats)
	s.mu.Unlock()
	return nil
}

// checkRefreshes verifies the version steps by exactly one per
// acknowledged refresh and the graph count grows by every batch.
func checkRefreshes(initial catapult.ServeStats, acked []catapult.ServeStats, added int) (final catapult.ServeStats, err error) {
	final = initial
	sorted := append([]catapult.ServeStats(nil), acked...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Version < sorted[j].Version })
	for i, st := range sorted {
		if want := initial.Version + uint64(i) + 1; st.Version != want {
			return final, fmt.Errorf("refresh %d acknowledged version %d, want %d", i, st.Version, want)
		}
		final = st
	}
	if want := initial.Graphs + added; final.Graphs != want {
		return final, fmt.Errorf("after %d refreshes the snapshot has %d graphs, want %d", len(acked), final.Graphs, want)
	}
	return final, nil
}

// sliceOutcome is what one server's session slice measured.
type sliceOutcome struct {
	seed      int64
	setup     time.Duration
	lat       map[opKind][]time.Duration
	lags      []time.Duration
	good      int           // saturation-phase keystrokes answered undegraded in budget
	capTime   time.Duration // length of the saturation phase
	scov      float64
	mu        float64
	recover   time.Duration
	harness   time.Duration
	scrape    time.Duration
	window    exposition // server metric deltas over the open-loop window
	total     exposition // the server's metrics at the end of the window
	serverCPU time.Duration
	hits      int
	degraded  int
	answered  int
}

// runGUISession runs one session slice per served dataset, each on a fresh
// cold-started server; the cold starts are the workload's repeated set-up.
// The served datasets, their selection seeds and the users' target pools
// are fixed, so a run measures serving, not differences between panels or
// query logs; the run seed drives what the users do: their speeds, which
// target each formulates and when, and the refresh batches.
func runGUISession(ctx context.Context, o runOptions) (*report, error) {
	if o.Guiserve == "" {
		return nil, errors.New("gui-session needs -guiserve")
	}
	rep := newReport()
	dir, err := os.MkdirTemp(o.TmpDir, "gui-session-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	slice := o.Duration / time.Duration(len(guiSpec.DBSeeds))
	var outs []*sliceOutcome
	for i := range guiSpec.DBSeeds {
		out, err := runSlice(ctx, rep, o, filepath.Join(dir, strconv.Itoa(i)), guiSpec.DBSeeds[i], datasetSeed(o.Seed, i), slice)
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
	}

	lat := map[opKind][]time.Duration{}
	var setups, lags []time.Duration
	var scov, mu, recover, harness, scrape []float64
	var keyMeans, capacities []float64
	var hits, degraded, answered int
	window, total := exposition{}, exposition{}
	var serverCPU time.Duration
	for _, out := range outs {
		setups = append(setups, out.setup)
		for k, ls := range out.lat {
			lat[k] = append(lat[k], ls...)
		}
		lags = append(lags, out.lags...)
		keyMeans = append(keyMeans, meanMs(out.lat[opKeystroke]))
		capacities = append(capacities, float64(out.good)/out.capTime.Seconds())
		rep.note("slice %d: setup_s=%.3f keystroke_mean_ms=%.3f keystroke_p50_ms=%.3f keystroke_p95_ms=%.3f capacity_rps=%.1f scov=%.4f",
			out.seed, out.setup.Seconds(), keyMeans[len(keyMeans)-1], ms(quantileDur(out.lat[opKeystroke], 0.50)),
			ms(quantileDur(out.lat[opKeystroke], 0.95)), capacities[len(capacities)-1], out.scov)
		scov = append(scov, out.scov)
		mu = append(mu, out.mu)
		recover = append(recover, ms(out.recover))
		harness = append(harness, ms(out.harness))
		scrape = append(scrape, ms(out.scrape))
		hits, degraded, answered = hits+out.hits, degraded+out.degraded, answered+out.answered
		window.add(out.window)
		total.add(out.total)
		serverCPU += out.serverCPU
	}
	// The keystroke figures are medians over the slices: a burst of load
	// on the host that slows one slice does not move them.
	v := rep.Values
	capacity := median(capacities)
	v["setup_s"] = medianDur(setups).Seconds()
	v["op_mean_ms"] = median(keyMeans)
	v["ops_per_s"] = capacity
	v["scov"] = mean(scov)
	failedShare := ratio(float64(rep.Failed), float64(rep.Attempted))
	hitShare := ratio(float64(hits), float64(answered))
	degradedShare := ratio(float64(degraded), float64(answered))
	if o.Trace {
		v["quality.mu"] = mean(mu)
		v["client.keystroke_p50_ms"] = ms(quantileDur(lat[opKeystroke], 0.50))
		v["client.keystroke_p95_ms"] = ms(quantileDur(lat[opKeystroke], 0.95))
		v["client.search_p50_ms"] = ms(quantileDur(lat[opSearch], 0.50))
		v["client.panel_p50_ms"] = ms(quantileDur(lat[opPanel], 0.50))
		v["client.refresh_p50_ms"] = ms(quantileDur(lat[opRefresh], 0.50))
		v["client.keystroke_capacity_rps"] = capacity
		v["client.keystroke_hit_share"] = hitShare
		v["client.keystroke_degraded_share"] = degradedShare
		v["client.failed_share"] = failedShare
		v["harness.lag_p99_ms"] = ms(quantileDur(lags, 0.99))
		v["harness.cpu_ms"] = mean(harness)
		v["store.recover_ms"] = mean(recover)
		v["trace.overhead_ms"] = mean(scrape)
		if served := window.sum("catapult_serve_requests_total", nil); served > 0 {
			v["serve.cpu_ms_per_op"] = ms(serverCPU) / served
		}
		serverLayers(v, window, total, len(outs))
	}
	rep.note("keystroke_mean_ms=%.3f (median of slices) keystroke_p50_ms=%.3f keystroke_p95_ms=%.3f keystroke_p99_ms=%.3f (%d slices of %v, from due time; n=%d) keystroke_capacity_rps=%.1f",
		v["op_mean_ms"], ms(quantileDur(lat[opKeystroke], 0.50)), ms(quantileDur(lat[opKeystroke], 0.95)),
		ms(quantileDur(lat[opKeystroke], 0.99)), len(outs), slice, len(lat[opKeystroke]), capacity)
	rep.note("keystroke_hit_share=%.4f keystroke_degraded_share=%.4f failed_share=%.4f",
		hitShare, degradedShare, failedShare)
	rep.note("search_p50_ms=%.3f search_max_ms=%.3f (n=%d) panel_p50_ms=%.3f panel_max_ms=%.3f (n=%d) refresh_p50_ms=%.1f (n=%d) setup_s=%.3f scov=%.4f",
		ms(quantileDur(lat[opSearch], 0.50)), ms(quantileDur(lat[opSearch], 1)), len(lat[opSearch]),
		ms(quantileDur(lat[opPanel], 0.50)), ms(quantileDur(lat[opPanel], 1)), len(lat[opPanel]),
		ms(quantileDur(lat[opRefresh], 0.50)), len(lat[opRefresh]), v["setup_s"], v["scov"])
	rep.note("harness: lag_p99_ms=%.3f cpu_ms=%.1f per slice, %d workers", ms(quantileDur(lags, 0.99)), mean(harness), runtime.NumCPU())
	return rep, nil
}

// runSlice cold-starts a server over AIDSLike(Graphs, dbSeed), replays the
// open-loop schedule generated from seed and then the saturation phase
// against it for d, shuts it down and checks what LoadState recovers from
// its state directory.
func runSlice(ctx context.Context, rep *report, o runOptions, dir string, dbSeed, seed int64, d time.Duration) (*sliceOutcome, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	out := &sliceOutcome{seed: seed}
	dbPath := filepath.Join(dir, "db.txt")
	if err := writeDBFile(dbPath, dataset.AIDSLike(guiSpec.Graphs, dbSeed)); err != nil {
		return nil, err
	}
	db, err := readDBFile(dbPath)
	if err != nil {
		return nil, err
	}
	// The targets are a fixed query log per served dataset; the users who
	// formulate them, and when, come from the run seed.
	targets := dataset.Queries(db, guiSpec.Targets, 4, 12, dbSeed+101)
	users, err := newPopulation(targets, guiSpec.Users, seed+202)
	if err != nil {
		return nil, err
	}
	// One refresh per slice, half-way through its open-loop window.
	window := time.Duration(float64(d) * guiSpec.OpenShare)
	events, err := makeSchedule(users, seed, scheduleSpec{Window: window, RefreshEvery: window})
	if err != nil {
		return nil, err
	}

	stateDir := filepath.Join(dir, "state")
	srv, setup, err := startServer(ctx, o.Guiserve, dbPath, stateDir, dbSeed, filepath.Join(dir, "guiserve.log"))
	if err != nil {
		return nil, err
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	out.setup = setup

	workers := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, DisableCompression: true}
	defer tr.CloseIdleConnections()
	st := &sessionState{
		client: &http.Client{Transport: tr, Timeout: 60 * time.Second},
		base:   srv.base,
		users:  users,
		rep:    rep,
		embeds: map[string]bool{},
	}
	initial, err := st.initialPanel(ctx)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 4; i++ {
		var buf bytes.Buffer
		batch := dataset.AIDSLike(guiSpec.BatchGraphs, seed*10+int64(i)+1)
		if err := catapult.WriteDB(&buf, batch); err != nil {
			return nil, err
		}
		st.batches = append(st.batches, buf.Bytes())
		st.batchN = append(st.batchN, batch.Len())
	}

	// Measured open-loop window, bracketed by scrapes in trace mode.
	var before exposition
	var cpuBefore time.Duration
	pid := srv.cmd.Process.Pid
	if o.Trace {
		t := time.Now()
		if before, err = st.scrape(ctx); err != nil {
			return nil, err
		}
		out.scrape += time.Since(t)
		cpuBefore, _ = procCPU(pid)
	}
	harnessBefore := processCPU()
	results := make([]error, len(events))
	timings := runOpenLoop(ctx, events, workers, func(ctx context.Context, i int) {
		ev := events[i]
		switch ev.Kind {
		case opKeystroke:
			_, results[i] = st.keystroke(ctx, keystrokeInput{body: ev.Body, target: ev.Target})
		case opPanel:
			results[i] = st.panel(ctx)
		case opSearch:
			results[i] = st.search(ctx, ev.Body)
		case opRefresh:
			results[i] = st.refresh(ctx, ev.Seq)
		}
	})
	out.harness = processCPU() - harnessBefore
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if o.Trace {
		cpuAfter, _ := procCPU(pid)
		out.serverCPU = cpuAfter - cpuBefore
		t := time.Now()
		after, err := st.scrape(ctx)
		if err != nil {
			return nil, err
		}
		out.scrape += time.Since(t)
		out.window = after.minus(before)
		out.total = after
	}

	out.lat = map[opKind][]time.Duration{}
	added := 0
	for i, ev := range events {
		rep.op(results[i])
		if results[i] != nil {
			continue
		}
		out.lat[ev.Kind] = append(out.lat[ev.Kind], timings[i].Latency)
		out.lags = append(out.lags, timings[i].Lag)
		if ev.Kind == opRefresh {
			added += st.batchN[ev.Seq%len(st.batches)]
		}
	}

	// Closing saturation phase: nproc keystrokes always outstanding.
	out.good, out.capTime = st.saturate(ctx, workers, d-window)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	final, err := checkRefreshes(initial, st.refreshes, added)
	if err != nil {
		rep.fail(err)
	}

	// Shut down (drain + final snapshot), then recover the state directory.
	s := srv
	srv = nil
	if err := s.stop(); err != nil {
		rep.fail(fmt.Errorf("server of dataset %d: shutdown: %w", seed, err))
	}
	recStart := time.Now()
	state, _, err := catapult.LoadState(stateDir)
	out.recover = time.Since(recStart)
	rep.op(err)
	if err == nil {
		if state.Version != final.Version || len(state.Graphs) != final.Graphs {
			rep.fail(fmt.Errorf("dataset %d: LoadState recovered version %d with %d graphs, want version %d with %d graphs",
				seed, state.Version, len(state.Graphs), final.Version, final.Graphs))
		}
		pgs := make([]*catapult.Graph, len(state.Patterns))
		for i, p := range state.Patterns {
			pgs[i] = p.G
		}
		rdb := state.DB()
		if out.scov, err = core.ScovCtx(ctx, rdb, pgs); err != nil {
			rep.fail(err)
		}
		if o.Trace {
			out.mu = queryform.Evaluate(qualityQueries(rdb, dbSeed), pgs, false).AvgMu
		}
	}
	st.mu.Lock()
	out.hits, out.degraded, out.answered = st.hits, st.degraded, st.answered
	st.mu.Unlock()
	return out, nil
}

// initialPanel reads the served panel before the session; its stats are
// the version baseline.
func (s *sessionState) initialPanel(ctx context.Context) (catapult.ServeStats, error) {
	data, err := s.call(ctx, http.MethodGet, "/v1/patterns", nil)
	s.rep.op(err)
	if err != nil {
		return catapult.ServeStats{}, err
	}
	var pr catapult.ServePatternsResponse
	if err := checkPanelResponse(data, &pr); err != nil {
		return catapult.ServeStats{}, err
	}
	if len(pr.Patterns) == 0 {
		return catapult.ServeStats{}, errors.New("empty initial panel")
	}
	s.observeVersion(pr.Stats.Version)
	return pr.Stats, nil
}

// saturate keeps workers keystrokes outstanding for d and returns how many
// were answered undegraded within the 100ms budget, and how long the phase
// took until its last answer. The users go on typing where the open-loop
// window left them, as fast as the server answers.
func (s *sessionState) saturate(ctx context.Context, workers int, d time.Duration) (int, time.Duration) {
	var mu sync.Mutex
	good := 0
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				in, err := s.users.nextKeystroke()
				if err != nil {
					mu.Lock()
					s.rep.op(err)
					mu.Unlock()
					return
				}
				start := time.Now()
				undegraded, err := s.keystroke(ctx, in)
				inBudget := time.Since(start) <= guiSpec.KeystrokeBudget
				mu.Lock()
				s.rep.op(err)
				if err == nil && undegraded && inBudget {
					good++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return good, time.Since(start)
}

func (s *sessionState) scrape(ctx context.Context) (exposition, error) {
	data, err := s.call(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	return parseExposition(bytes.NewReader(data))
}

// serverLayers fills the serve, suggest, maintainer and store per-layer
// metrics from window, the summed scrape deltas around the measured
// windows, and the pipeline layers from total, the servers' summed
// cumulative stage histograms and counters (their cold starts, plus
// whatever refreshes emit), as means per server.
func serverLayers(v map[string]float64, window, total exposition, servers int) {
	endpoint := func(name string) map[string]string { return map[string]string{"endpoint": name} }
	const reqDur = "catapult_serve_request_duration_seconds"
	v["serve.panel_ms"] = 1000 * window.mean(reqDur, endpoint("patterns"))
	v["serve.search_ms"] = 1000 * window.mean(reqDur, endpoint("search"))
	v["serve.suggest_ms"] = 1000 * window.mean(reqDur, endpoint("suggest"))
	v["serve.refresh_ms"] = 1000 * window.mean(reqDur, endpoint("refresh"))
	v["serve.coalesced"] = window.sum("catapult_serve_coalesced_requests_total", nil) +
		window.sum("catapult_suggest_coalesced_requests_total", nil)
	v["serve.shed"] = window.sum("catapult_serve_shed_requests_total", nil)
	v["suggest.keystroke_ms"] = 1000 * window.mean("catapult_suggest_keystroke_seconds", nil)
	for _, reason := range []string{"verify_budget", "verify_fault", "rank_prefix", "ged_approx"} {
		v["suggest.degraded."+reason] = window.sum("catapult_suggest_degraded_total",
			map[string]string{"reason": "suggest_" + reason})
	}
	v["suggest.suggestions_mean"] = window.mean("catapult_suggest_suggestions", nil)
	v["maintain.refresh_ms"] = 1000 * window.mean("catapult_maintainer_refresh_duration_seconds", nil)
	v["maintain.refreshes"] = window.sum("catapult_maintainer_refreshes_total", nil)
	v["maintain.refresh_failures"] = window.sum("catapult_maintainer_refresh_failures_total", nil)
	v["store.persist_ms"] = 1000 * window.mean("catapult_store_persist_duration_seconds", nil)
	v["store.persists"] = window.sum("catapult_store_persists_total", nil)

	n := float64(servers)
	stage := func(name string) float64 {
		return 1000 * total.sum("catapult_stage_duration_seconds_sum", map[string]string{"stage": name}) / n
	}
	counter := func(name string) float64 {
		return total.sum("catapult_pipeline_events_total", map[string]string{"counter": name}) / n
	}
	v["treemine.mine_ms"] = stage("mine")
	v["cluster.coarse_ms"] = stage("coarse") - stage("mine")
	v["cluster.fine_ms"] = stage("fine")
	v["cluster.self_ms"] = stage("clustering") - stage("coarse") - stage("fine")
	v["csg.build_ms"] = stage("csg")
	v["core.select_ms"] = stage("select")
	v["treemine.trees_mined"] = counter("trees_mined")
	v["cluster.clusters_split"] = counter("clusters_split")
	v["cluster.pairs_pruned"] = counter("cluster_pairs_pruned")
	v["mcs.calls"] = counter("mcs_calls")
	v["simcache.hit_ratio"] = ratio(counter("simcache_hits"), counter("simcache_hits")+counter("simcache_misses"))
	v["csg.closure_merges"] = counter("closure_merges")
	v["core.walks"] = counter("walks")
	v["core.candidates_generated"] = counter("candidates_generated")
	v["core.accept_ratio"] = ratio(counter("candidates_accepted"), counter("candidates_generated"))
	v["ged.calls"] = counter("ged_calls")
	v["subiso.vf2_calls"] = counter("vf2_calls")
	v["cover.hit_ratio"] = ratio(counter("cover_cache_hits"), counter("cover_cache_hits")+counter("cover_cache_misses"))
	v["cover.pruned"] = counter("cover_pruned")
}

func writeDBFile(path string, db *catapult.DB) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = catapult.WriteDB(w, db)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func readDBFile(path string) (*catapult.DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return catapult.ReadDB(bufio.NewReader(f), filepath.Base(path))
}

// The build workloads: the offline pipeline (ReadDB + SelectCtx) driven
// in-process through the public facade, in rounds over a fixed pool of
// generated datasets.
package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	catapult "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/queryform"
)

// buildSpec sizes one build workload.
type buildSpec struct {
	Name   string
	Graphs int
	Budget catapult.Budget
	// Datasets is the size of the workload's fixed dataset pool: datasets
	// AIDSLike(Graphs, 1..Datasets), each selected with its own dataset
	// seed. Every run builds the whole pool once a round.
	Datasets int
}

var (
	buildSelect = buildSpec{Name: "build-select", Graphs: 60,
		Budget: catapult.Budget{EtaMin: 3, EtaMax: 12, Gamma: 20}, Datasets: 8}
	buildCluster = buildSpec{Name: "build-cluster", Graphs: 300,
		Budget: catapult.Budget{EtaMin: 3, EtaMax: 6, Gamma: 5}, Datasets: 3}
)

// A build run makes one round per roundTime of --seconds, and at least
// minRounds, so each dataset's build time is the median of at least three
// builds. The pools are sized so that a round takes about roundTime on a
// 2-vCPU VM.
const (
	minRounds = 3
	roundTime = 10 * time.Second
)

// setupReps is how many timed set-ups a run makes after an untimed one
// that warms the process up; setup_s is their median.
const setupReps = 9

func (b buildSpec) config(seed int64, obs catapult.Observer) catapult.Config {
	return catapult.Config{
		Budget:     b.Budget,
		Clustering: catapult.ClusterConfig{Strategy: catapult.HybridMCCS, N: 20, MinSupport: 0.1},
		Seed:       seed,
		Observer:   obs,
	}
}

// datasetSeed derives the seed of the i-th slice of a gui-session run.
func datasetSeed(runSeed int64, i int) int64 { return runSeed*1000 + int64(i) }

// poolSeed is the seed of the i-th dataset of a build workload's pool.
func poolSeed(i int) int64 { return int64(i) + 1 }

// setup generates the dataset pool, writes each dataset to a file in dir
// in transaction text format and reads it back with ReadDB, the parser
// every build starts with. A file that does not read back whole fails the
// run.
func (b buildSpec) setup(dir string) ([]string, error) {
	paths := make([]string, b.Datasets)
	for i := range paths {
		seed := poolSeed(i)
		paths[i] = filepath.Join(dir, fmt.Sprintf("%s-%d.txt", b.Name, seed))
		db := dataset.AIDSLike(b.Graphs, seed)
		if err := writeDBFile(paths[i], db); err != nil {
			return nil, err
		}
		back, err := readDBFile(paths[i])
		if err != nil {
			return nil, err
		}
		if back.Len() != db.Len() {
			return nil, fmt.Errorf("%s: read back %d of %d graphs", paths[i], back.Len(), db.Len())
		}
	}
	return paths, nil
}

// buildOutcome is one timed build: ReadDB of the input file plus SelectCtx.
type buildOutcome struct {
	DB    *catapult.DB
	Res   *catapult.Result
	Start time.Time
	Read  time.Duration
	Wall  time.Duration
}

func (b buildSpec) build(ctx context.Context, path string, seed int64, obs catapult.Observer) (*buildOutcome, error) {
	start := time.Now()
	db, err := readDBFile(path)
	if err != nil {
		return nil, err
	}
	read := time.Since(start)
	res, err := catapult.SelectCtx(ctx, db, b.config(seed, obs))
	if err != nil {
		return nil, err
	}
	return &buildOutcome{DB: db, Res: res, Start: start, Read: read, Wall: time.Since(start)}, nil
}

// datasetRun accumulates the builds of one dataset within a run.
type datasetRun struct {
	seed   int64
	digest string
	walls  []time.Duration
	traced []time.Duration
	scov   float64
	mu     float64
	inDB   float64
}

func runBuild(ctx context.Context, b buildSpec, o runOptions) (*report, error) {
	rep := newReport()
	dir, err := os.MkdirTemp(o.TmpDir, b.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	digests, err := openDigestStore(o.TmpDir)
	if err != nil {
		return nil, err
	}

	var paths []string
	var setups []time.Duration
	for i := 0; i <= setupReps; i++ {
		start := time.Now()
		if paths, err = b.setup(dir); err != nil {
			return nil, err
		}
		if i > 0 {
			setups = append(setups, time.Since(start))
		}
	}
	rep.Values["setup_s"] = medianDur(setups).Seconds()

	runs := make([]*datasetRun, len(paths))
	for i := range runs {
		runs[i] = &datasetRun{seed: poolSeed(i)}
	}
	order := rand.New(rand.NewSource(o.Seed))
	var lt layerTotals
	var spanLog bytes.Buffer // spans are written out when the run ends
	defer func() { o.Log.Write(spanLog.Bytes()) }()
	// Every round builds each dataset once, in an order drawn from the run
	// seed. The round count depends only on --seconds, so every run's
	// medians are over the same number of builds, however fast the host
	// is at the time.
	rounds := max(minRounds, int(o.Duration/roundTime))
	for round := 0; round < rounds; round++ {
		for _, i := range order.Perm(len(paths)) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			path, d := paths[i], runs[i]
			out, err := b.build(ctx, path, d.seed, nil)
			rep.op(err)
			if err != nil {
				continue
			}
			d.walls = append(d.walls, out.Wall)
			b.verify(ctx, rep, digests, d, out, round == 0, o.Trace)
			if !o.Trace {
				continue
			}
			rec := newSpanRecorder()
			traced, err := b.build(ctx, path, d.seed, rec)
			rep.op(err)
			if err != nil {
				continue
			}
			d.traced = append(d.traced, traced.Wall)
			if got := patternDigest(traced.Res.PatternGraphs()); got != d.digest {
				rep.fail(fmt.Errorf("dataset %d: traced build digest %.12s differs from untraced %.12s", d.seed, got, d.digest))
			}
			at := traced.Start.Sub(rec.origin)
			spans := linkSpans(append(rec.Spans(),
				span{Name: "build", Start: at, End: at + traced.Wall},
				span{Name: "read", Start: at, End: at + traced.Read}))
			writeSpans(&spanLog, fmt.Sprintf("%s/%d/round%d", b.Name, d.seed, round), spans)
			lt.add(spans, rec.counters, traced.Read)
		}
	}
	b.summarize(rep, runs)
	if o.Trace {
		lt.fill(rep.Values)
		var overhead []float64
		for _, d := range runs {
			for j := range d.traced {
				if j >= len(d.walls) {
					break
				}
				overhead = append(overhead, ms(d.traced[j]-d.walls[j]))
			}
		}
		rep.Values["trace.overhead_ms"] = mean(overhead)
		rep.note("layer shares of traced build wall: %s", lt.shares())
	}
	return rep, nil
}

// verify checks one untraced build's output. The first build of a dataset
// fixes its digest (checked against earlier runs at the same seed) and its
// quality figures; later builds must reproduce the digest.
func (b buildSpec) verify(ctx context.Context, rep *report, digests *digestStore, d *datasetRun, out *buildOutcome, first, trace bool) {
	pgs := out.Res.PatternGraphs()
	for _, err := range checkPatterns(out.Res, b.Budget) {
		rep.fail(fmt.Errorf("dataset %d: %w", d.seed, err))
	}
	digest := patternDigest(pgs)
	if !first {
		if digest != d.digest {
			rep.fail(fmt.Errorf("dataset %d: digest %.12s differs from this run's first build %.12s", d.seed, digest, d.digest))
		}
		return
	}
	d.digest = digest
	if err := digests.check(fmt.Sprintf("%s-%d", b.Name, d.seed), digest); err != nil {
		rep.fail(err)
	}
	scov, err := core.ScovCtx(ctx, out.DB, pgs)
	if err != nil {
		rep.fail(err)
	}
	d.scov = scov
	if trace {
		d.mu = queryform.Evaluate(qualityQueries(out.DB, d.seed), pgs, false).AvgMu
		d.inDB = dbContainedShare(out.DB, pgs)
	}
}

// qualityQueries is the subgraph-query workload scov's companion μ is
// measured on (Sec 6.1 style: connected subgraphs of 4–20 edges).
func qualityQueries(db *catapult.DB, seed int64) []*catapult.Graph {
	return dataset.Queries(db, 200, 4, 20, seed+7)
}

// summarize sets the build figures. A dataset's build time is the median
// over its rounds, so a burst of load on the host that slows one round
// does not move it; op_mean_ms is the mean of these over the pool.
func (b buildSpec) summarize(rep *report, runs []*datasetRun) {
	var all []time.Duration
	var builds, scovs, mus, inDB []float64
	for _, d := range runs {
		if len(d.walls) == 0 {
			continue
		}
		all = append(all, d.walls...)
		walls := make([]float64, len(d.walls))
		for i, w := range d.walls {
			walls[i] = ms(w)
		}
		builds = append(builds, median(walls))
		scovs = append(scovs, d.scov)
		mus = append(mus, d.mu)
		inDB = append(inDB, d.inDB)
		rep.note("dataset %d: digest=%s build_s=%.3f (median of %d) scov=%.4f", d.seed, d.digest, builds[len(builds)-1]/1000, len(walls), d.scov)
	}
	if len(all) == 0 {
		return
	}
	rep.Values["op_mean_ms"] = mean(builds)
	rep.Values["ops_per_s"] = 1000 / rep.Values["op_mean_ms"]
	rep.Values["scov"] = mean(scovs)
	rep.Values["quality.mu"] = mean(mus)
	rep.Values["quality.db_contained_share"] = mean(inDB)
	rep.note("build_s: mean %.3f s of the datasets' medians; median %.3f s, max %.3f s over all %d builds; setup_s=%.4f s scov=%.4f",
		rep.Values["op_mean_ms"]/1000, medianDur(all).Seconds(), quantileDur(all, 1).Seconds(), len(all), rep.Values["setup_s"], rep.Values["scov"])
}

// layerTotals accumulates the per-layer figures of the traced builds.
type layerTotals struct {
	builds   int
	read     time.Duration
	stages   map[string]stageTotal
	counters map[catapult.Counter]int64
}

func (lt *layerTotals) add(spans []span, counters map[catapult.Counter]int64, read time.Duration) {
	if lt.stages == nil {
		lt.stages = map[string]stageTotal{}
		lt.counters = map[catapult.Counter]int64{}
	}
	lt.builds++
	lt.read += read
	for name, t := range stageTotals(spans) {
		acc := lt.stages[name]
		acc.Wall += t.Wall
		acc.Self += t.Self
		acc.CPU += t.CPU
		lt.stages[name] = acc
	}
	for c, n := range counters {
		lt.counters[c] += n
	}
}

// fill writes the per-build means into v. Stage times are self times, so
// the layers partition the build: clustering's self time excludes coarse
// and fine, coarse's excludes mining.
func (lt *layerTotals) fill(v map[string]float64) {
	if lt.builds == 0 {
		return
	}
	n := float64(lt.builds)
	self := func(stage string) float64 { return ms(lt.stages[stage].Self) / n }
	cores := func(stage string) float64 {
		if t := lt.stages[stage]; t.Wall > 0 {
			return float64(t.CPU) / float64(t.Wall)
		}
		return 0
	}
	count := func(c catapult.Counter) float64 { return float64(lt.counters[c]) / n }
	v["graph.read_ms"] = ms(lt.read) / n
	v["treemine.mine_ms"] = self("mine")
	v["cluster.coarse_ms"] = self("coarse")
	v["cluster.fine_ms"] = self("fine")
	v["cluster.self_ms"] = self("clustering")
	v["cluster.fine_cores"] = cores("fine")
	v["csg.build_ms"] = self("csg")
	v["core.select_ms"] = self("select")
	v["core.select_cores"] = cores("select")
	v["treemine.trees_mined"] = count("trees_mined")
	v["cluster.clusters_split"] = count("clusters_split")
	v["cluster.pairs_pruned"] = count("cluster_pairs_pruned")
	v["mcs.calls"] = count("mcs_calls")
	v["simcache.hit_ratio"] = ratio(float64(lt.counters["simcache_hits"]), float64(lt.counters["simcache_hits"]+lt.counters["simcache_misses"]))
	v["csg.closure_merges"] = count("closure_merges")
	v["core.walks"] = count("walks")
	v["core.candidates_generated"] = count("candidates_generated")
	v["core.accept_ratio"] = ratio(float64(lt.counters["candidates_accepted"]), float64(lt.counters["candidates_generated"]))
	v["ged.calls"] = count("ged_calls")
	v["subiso.vf2_calls"] = count("vf2_calls")
	v["cover.hit_ratio"] = ratio(float64(lt.counters["cover_cache_hits"]), float64(lt.counters["cover_cache_hits"]+lt.counters["cover_cache_misses"]))
	v["cover.pruned"] = count("cover_pruned")
}

// shares renders each stage's self time as a share of the build's wall.
func (lt *layerTotals) shares() string {
	build := lt.stages["build"].Wall
	if build <= 0 {
		return "n/a"
	}
	names := make([]string, 0, len(lt.stages))
	for name := range lt.stages {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return lt.stages[names[i]].Self > lt.stages[names[j]].Self })
	s := ""
	for _, name := range names {
		s += fmt.Sprintf(" %s=%.1f%%", name, 100*float64(lt.stages[name].Self)/float64(build))
	}
	return s[1:]
}

// ratio is num / den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func medianDur(ds []time.Duration) time.Duration { return quantileDur(ds, 0.5) }

// median is the middle value of xs (the mean of the two middle values for
// an even count), 0 for none; xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// meanMs is the mean of ds in milliseconds, 0 for none.
func meanMs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ms(sum) / float64(len(ds))
}

// quantileDur is the nearest-rank q-quantile of ds (ds is not modified).
func quantileDur(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

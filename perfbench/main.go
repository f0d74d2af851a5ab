// Command perfbench is the repository benchmark. It runs one workload per
// invocation and prints, as the last line of standard output, one JSON
// object with the keys correct, attempted, failed and metrics:
//
//	perfbench -guiserve bin/guiserve --workload build-select --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//	build-select   a pool of eight AIDSLike(60) datasets, b=(3,12,20): selection dominates
//	build-cluster  a pool of three AIDSLike(300) datasets, b=(3,6,5): fine clustering dominates
//	gui-session    three cold-started cmd/guiserve -serve -state-dir child
//	               processes, each under an open-loop schedule of users
//	               typing, searching and reading the panel beside a
//	               refresh, then a saturation phase
//
// NOTES.md explains the sizes, the metrics and the layer they map to.
//
// With --trace 0 the metrics are the end-to-end set (endToEnd); with
// --trace 1 they are the per-layer set (perLayer), taken from a traced run:
// a benchmark-side pipeline Observer for the builds, /metrics and
// /proc/<pid>/stat deltas around the measured window for gui-session.
// A human-readable summary, the pattern-set digests and the traced spans go
// to standard error. Every output check that fails counts as a failed
// operation and makes correct false.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	Name string
	Unit string
}

// endToEnd are the --trace 0 metrics: what a user of the system sees. Every
// workload reports all of them; op is the workload's primary operation (a
// full build for build-*, a keystroke for gui-session).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"op_mean_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"scov", "ratio"},
}

// perLayer are the --trace 1 metrics. A layer a workload does not exercise
// reports 0.
var perLayer = []metricSpec{
	{"graph.read_ms", "ms"},
	{"treemine.mine_ms", "ms"},
	{"treemine.trees_mined", "count"},
	{"cluster.coarse_ms", "ms"},
	{"cluster.fine_ms", "ms"},
	{"cluster.self_ms", "ms"},
	{"cluster.fine_cores", "cores"},
	{"cluster.clusters_split", "count"},
	{"cluster.pairs_pruned", "count"},
	{"mcs.calls", "count"},
	{"simcache.hit_ratio", "ratio"},
	{"csg.build_ms", "ms"},
	{"csg.closure_merges", "count"},
	{"core.select_ms", "ms"},
	{"core.select_cores", "cores"},
	{"core.walks", "count"},
	{"core.candidates_generated", "count"},
	{"core.accept_ratio", "ratio"},
	{"ged.calls", "count"},
	{"subiso.vf2_calls", "count"},
	{"cover.hit_ratio", "ratio"},
	{"cover.pruned", "count"},
	{"trace.overhead_ms", "ms"},
	{"quality.mu", "ratio"},
	{"quality.db_contained_share", "ratio"},
	{"serve.panel_ms", "ms"},
	{"serve.search_ms", "ms"},
	{"serve.suggest_ms", "ms"},
	{"serve.refresh_ms", "ms"},
	{"serve.coalesced", "count"},
	{"serve.shed", "count"},
	{"serve.cpu_ms_per_op", "ms"},
	{"suggest.keystroke_ms", "ms"},
	{"suggest.degraded.verify_budget", "count"},
	{"suggest.degraded.verify_fault", "count"},
	{"suggest.degraded.rank_prefix", "count"},
	{"suggest.degraded.ged_approx", "count"},
	{"suggest.suggestions_mean", "count"},
	{"maintain.refresh_ms", "ms"},
	{"maintain.refreshes", "count"},
	{"maintain.refresh_failures", "count"},
	{"store.persist_ms", "ms"},
	{"store.persists", "count"},
	{"store.recover_ms", "ms"},
	{"harness.lag_p99_ms", "ms"},
	{"harness.cpu_ms", "ms"},
	{"client.keystroke_p50_ms", "ms"},
	{"client.keystroke_p95_ms", "ms"},
	{"client.search_p50_ms", "ms"},
	{"client.panel_p50_ms", "ms"},
	{"client.refresh_p50_ms", "ms"},
	{"client.keystroke_capacity_rps", "1/s"},
	{"client.keystroke_hit_share", "ratio"},
	{"client.keystroke_degraded_share", "ratio"},
	{"client.failed_share", "ratio"},
}

// runOptions are the arguments every workload receives.
type runOptions struct {
	Seed     int64
	Duration time.Duration
	Trace    bool
	Guiserve string
	TmpDir   string
	Log      io.Writer
}

// report is one run's outcome: operation counts, the failed checks and the
// measured values keyed by metric name.
type report struct {
	Attempted int
	Failed    int
	Failures  []string
	Values    map[string]float64
	// Summary holds the human-readable lines printed to standard error.
	Summary []string
}

func newReport() *report { return &report{Values: map[string]float64{}} }

// op counts one attempted operation and, when err is non-nil, one failure.
func (r *report) op(err error) {
	r.Attempted++
	if err != nil {
		r.fail(err)
	}
}

// fail records a failed operation or output check without counting a new
// attempt.
func (r *report) fail(err error) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, err.Error())
	}
}

func (r *report) note(format string, args ...any) {
	r.Summary = append(r.Summary, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result projects the report onto the given metric set; a metric the
// workload did not set reports 0.
func (r *report) result(specs []metricSpec) result {
	out := result{
		Correct:   r.Failed == 0 && r.Attempted > 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		out.Metrics[s.Name] = metricValue{Value: r.Values[s.Name], Unit: s.Unit}
	}
	return out
}

var workloads = map[string]func(context.Context, runOptions) (*report, error){
	"build-select":  func(ctx context.Context, o runOptions) (*report, error) { return runBuild(ctx, buildSelect, o) },
	"build-cluster": func(ctx context.Context, o runOptions) (*report, error) { return runBuild(ctx, buildCluster, o) },
	"gui-session":   runGUISession,
}

func main() {
	workload := flag.String("workload", "", "workload to run: build-select, build-cluster or gui-session")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 30, "measured time of the run")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	guiserve := flag.String("guiserve", "", "path of the cmd/guiserve binary (gui-session)")
	tmp := flag.String("tmp", os.TempDir(), "directory for generated inputs and server state")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fatalf("unknown workload %q (have %v)", *workload, names)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("need --seconds > 0 and --trace 0 or 1")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := runOptions{
		Seed:     *seed,
		Duration: time.Duration(*seconds * float64(time.Second)),
		Trace:    *trace == 1,
		Guiserve: *guiserve,
		TmpDir:   *tmp,
		Log:      os.Stderr,
	}
	rep, err := run(ctx, opts)
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	specs := endToEnd
	if opts.Trace {
		specs = perLayer
	}
	res := rep.result(specs)
	for _, line := range rep.Summary {
		fmt.Fprintf(os.Stderr, "%s: %s\n", *workload, line)
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(os.Stderr, "%s: FAILED: %s\n", *workload, f)
	}
	fmt.Fprintf(os.Stderr, "%s: attempted=%d failed=%d correct=%v\n", *workload, res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

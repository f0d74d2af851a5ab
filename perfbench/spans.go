// The benchmark-side pipeline Observer of traced builds: it records every
// stage as a span with its wall interval and the process CPU time spent
// inside it, plus the pipeline counters.
package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"syscall"
	"time"

	catapult "repro"
)

// span is one recorded pipeline stage. Start and End are offsets from the
// recorder's origin; CPU is the process CPU time consumed between them.
type span struct {
	Name   string
	Start  time.Duration
	End    time.Duration
	CPU    time.Duration
	Parent int // index of the innermost enclosing span, -1 at the root
}

func (s span) Wall() time.Duration { return s.End - s.Start }

// spanRecorder implements catapult.Observer. Stages of one pipeline run do
// not overlap with themselves, so a StageEnd closes the latest open span of
// its stage.
type spanRecorder struct {
	mu       sync.Mutex
	origin   time.Time
	open     map[catapult.Stage][]openSpan
	spans    []span
	counters map[catapult.Counter]int64
}

type openSpan struct {
	start time.Duration
	cpu   time.Duration
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{
		origin:   time.Now(),
		open:     map[catapult.Stage][]openSpan{},
		counters: map[catapult.Counter]int64{},
	}
}

func (r *spanRecorder) StageStart(s catapult.Stage) {
	at, cpu := time.Since(r.origin), processCPU()
	r.mu.Lock()
	r.open[s] = append(r.open[s], openSpan{start: at, cpu: cpu})
	r.mu.Unlock()
}

func (r *spanRecorder) StageEnd(s catapult.Stage, d time.Duration) {
	at, cpu := time.Since(r.origin), processCPU()
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := span{Name: string(s), Start: at - d, End: at, Parent: -1}
	if stack := r.open[s]; len(stack) > 0 {
		o := stack[len(stack)-1]
		r.open[s] = stack[:len(stack)-1]
		sp.Start, sp.CPU = o.start, cpu-o.cpu
	}
	r.spans = append(r.spans, sp)
}

func (r *spanRecorder) Add(c catapult.Counter, n int64) {
	r.mu.Lock()
	r.counters[c] += n
	r.mu.Unlock()
}

// Spans returns the recorded spans ordered by start, each linked to its
// innermost enclosing span.
func (r *spanRecorder) Spans() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	return linkSpans(out)
}

// linkSpans sorts spans by start (longer first on ties, so parents precede
// children) and sets each Parent to the innermost span containing it.
func linkSpans(spans []span) []span {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End
	})
	for i := range spans {
		spans[i].Parent = -1
		for j := i - 1; j >= 0; j-- {
			if spans[j].Start <= spans[i].Start && spans[i].End <= spans[j].End {
				spans[i].Parent = j
				break
			}
		}
	}
	return spans
}

// selfTimes returns each span's wall time minus its direct children's.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.Wall()
		if s.Parent >= 0 {
			self[s.Parent] -= s.Wall()
		}
	}
	return self
}

// stageTotals sums wall time, self time and CPU time per stage name.
type stageTotal struct{ Wall, Self, CPU time.Duration }

func stageTotals(spans []span) map[string]stageTotal {
	self := selfTimes(spans)
	out := map[string]stageTotal{}
	for i, s := range spans {
		t := out[s.Name]
		t.Wall += s.Wall()
		t.Self += self[i]
		t.CPU += s.CPU
		out[s.Name] = t
	}
	return out
}

// writeSpans prints one line per span: name, start, end, parent and self
// time, in milliseconds from the build's start.
func writeSpans(w io.Writer, label string, spans []span) {
	self := selfTimes(spans)
	for i, s := range spans {
		parent := "-"
		if s.Parent >= 0 {
			parent = spans[s.Parent].Name
		}
		fmt.Fprintf(w, "span %s name=%s start_ms=%.3f end_ms=%.3f parent=%s self_ms=%.3f cpu_ms=%.3f\n",
			label, s.Name, ms(s.Start), ms(s.End), parent, ms(self[i]), ms(s.CPU))
	}
}

// processCPU is the user plus system CPU time of this process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

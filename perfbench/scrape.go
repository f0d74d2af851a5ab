// Reading the server from outside: a parser for its /metrics text
// exposition and a CPU reader for /proc/<pid>/stat.
package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// exposition is one scrape: sample value by series key, where a key is the
// sample name followed by its labels sorted by name, e.g.
// `catapult_serve_requests_total{code="200",endpoint="suggest"}`.
type exposition map[string]float64

// parseExposition reads the Prometheus/OpenMetrics text format: comment
// lines are skipped, every other line is `name{labels} value [timestamp]`.
func parseExposition(r io.Reader) (exposition, error) {
	out := exposition{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		key, rest, err := splitSeries(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", n, err)
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("line %d: no value", n)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: value %q: %w", n, fields[0], err)
		}
		out[key] = v
	}
	return out, sc.Err()
}

// splitSeries splits a sample line into its canonical series key and the
// text after it.
func splitSeries(line string) (key, rest string, err error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", "", fmt.Errorf("malformed sample %q", line)
	}
	name := line[:i]
	if line[i] == ' ' {
		return name, line[i:], nil
	}
	labels, rest, err := parseLabels(line[i+1:])
	if err != nil {
		return "", "", err
	}
	return seriesKey(name, labels), rest, nil
}

// parseLabels parses `a="x",b="y"}` (the opening brace already consumed),
// honouring the \\, \" and \n escapes inside values.
func parseLabels(s string) (map[string]string, string, error) {
	labels := map[string]string{}
	for {
		s = strings.TrimLeft(s, " ,")
		if strings.HasPrefix(s, "}") {
			return labels, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, "", fmt.Errorf("malformed labels %q", s)
		}
		name := strings.TrimSpace(s[:eq])
		var val strings.Builder
		i := eq + 2
		for ; i < len(s) && s[i] != '"'; i++ {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				if s[i] == 'n' {
					val.WriteByte('\n')
					continue
				}
			}
			val.WriteByte(s[i])
		}
		if i >= len(s) {
			return nil, "", fmt.Errorf("unterminated label value in %q", s)
		}
		labels[name] = val.String()
		s = s[i+1:]
	}
}

// seriesKey renders name and labels in the canonical key form.
func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	names := make([]string, 0, len(labels))
	for k := range labels {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// sum adds every sample named name whose labels include all of match.
func (e exposition) sum(name string, match map[string]string) float64 {
	total := 0.0
	for key, v := range e {
		n, labels := key, ""
		if i := strings.IndexByte(key, '{'); i >= 0 {
			n, labels = key[:i], key[i:]
		}
		if n != name {
			continue
		}
		ok := true
		for k, want := range match {
			pair := fmt.Sprintf("%s=%q", k, want)
			if !strings.Contains(labels, "{"+pair) && !strings.Contains(labels, ","+pair) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// minus returns the per-series change from before to e.
func (e exposition) minus(before exposition) exposition {
	out := make(exposition, len(e))
	for k, v := range e {
		out[k] = v - before[k]
	}
	return out
}

// add accumulates other into e series by series.
func (e exposition) add(other exposition) {
	for k, v := range other {
		e[k] += v
	}
}

// mean is the mean observation of a histogram (or summary) from its _sum
// and _count series; 0 when nothing was observed.
func (e exposition) mean(name string, match map[string]string) float64 {
	n := e.sum(name+"_count", match)
	if n <= 0 {
		return 0
	}
	return e.sum(name+"_sum", match) / n
}

// clockTicks is USER_HZ, the unit of the CPU fields of /proc/<pid>/stat;
// Linux fixes it at 100 for every architecture's user-visible ABI.
const clockTicks = 100

// procCPU returns the user plus system CPU time pid has consumed, from
// fields 14 and 15 of /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(data))
}

// parseProcStat extracts utime+stime from a /proc/<pid>/stat line. The
// command name (field 2) may contain spaces and parentheses, so fields are
// counted from its closing parenthesis.
func parseProcStat(line string) (time.Duration, error) {
	i := strings.LastIndexByte(line, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat line %q", line)
	}
	fields := strings.Fields(line[i+1:])
	// fields[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(fields) < 13 {
		return 0, fmt.Errorf("stat line has %d fields after the command", len(fields))
	}
	var ticks float64
	for _, f := range fields[11:13] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("stat cpu field %q: %w", f, err)
		}
		ticks += float64(v)
	}
	return time.Duration(math.Round(ticks * float64(time.Second) / clockTicks)), nil
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the index of the span that
// caused it (-1 for a root). Run groups the spans of one request or one
// pipeline phase.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Run    int64  `json:"run"`
}

// Pipeline phases, used as span run ids. Requests use their own index,
// offset by runRequest.
const (
	runCalibrate int64 = iota
	runTrain
	runTest
	runPlace
	runRequest int64 = 1 << 32
)

// tracer keeps spans and counters in memory until the run writes them out.
// It is safe for concurrent use.
type tracer struct {
	epoch  time.Time
	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: map[string]float64{}}
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// start opens a span and returns its id.
func (t *tracer) start(name string, parent int32, run int64) int32 {
	now := t.ns(time.Now())
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Run: run})
	t.mu.Unlock()
	return id
}

// stop closes span id.
func (t *tracer) stop(id int32) {
	now := t.ns(time.Now())
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span whose bounds were measured elsewhere.
func (t *tracer) record(name string, start, end time.Time, parent int32, run int64) int32 {
	return t.recordNs(name, t.ns(start), t.ns(end), parent, run)
}

// recordNs adds a span with bounds already on the tracer's clock.
func (t *tracer) recordNs(name string, start, end int64, parent int32, run int64) int32 {
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Run: run})
	t.mu.Unlock()
	return id
}

// add increments a counter.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) count(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// layerOf is the module a span belongs to: its name up to the first dot.
// Spans named "run.*" mark pipeline phases, not layers.
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfTimes sums, per span name, the durations of the spans keep accepts
// minus the part their children cover, in seconds.
func (t *tracer) selfTimes(keep func(span) bool) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		if s.End < 0 || !keep(s) {
			continue
		}
		out[s.Name] += float64(s.End-s.Start-child[i]) / 1e9
	}
	return out
}

// layerSelf folds selfTimes by layer.
func layerSelf(self map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for name, s := range self {
		out[layerOf(name)] += s
	}
	return out
}

// layerSelfAll is the self time of every layer over the whole run.
func (t *tracer) layerSelfAll() map[string]float64 {
	out := layerSelf(t.selfTimes(func(span) bool { return true }))
	delete(out, "run")
	return out
}

// summary prints the self time of every layer, largest first, with the
// coverage and overhead that vouch for the trace.
func (t *tracer) summary(w io.Writer, coverage, overhead float64) {
	self := t.layerSelfAll()
	var names []string
	var total float64
	for n, v := range self {
		names = append(names, n)
		total += v
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "trace: coverage %.3f, overhead %+.3f; self time by layer:\n", coverage, overhead)
	for _, n := range names {
		fmt.Fprintf(w, "  %-12s %10.4f s  %5.1f%%\n", n, self[n], 100*self[n]/total)
	}
}

// coverage is the share of [from, to] that lies inside at least one layer
// span (any span not named "run.*").
func (t *tracer) coverage(from, to time.Time) float64 {
	lo, hi := t.ns(from), t.ns(to)
	if hi <= lo {
		return 0
	}
	t.mu.Lock()
	var iv [][2]int64
	for _, s := range t.spans {
		if s.End < 0 || layerOf(s.Name) == "run" {
			continue
		}
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	t.mu.Unlock()
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, end int64 = 0, lo
	for _, v := range iv {
		if v[0] > end {
			end = v[0]
		}
		if v[1] > end {
			covered += v[1] - end
			end = v[1]
		}
	}
	return float64(covered) / float64(hi-lo)
}

func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Spans  []span             `json:"spans"`
		Counts map[string]float64 `json:"counts"`
	}{t.spans, t.counts})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

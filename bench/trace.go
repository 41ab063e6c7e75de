package main

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the harness side
// of the layer's public function. Spans of one operation (a replay
// slice, an API request, a crawl round) share Op; Parent is the ID of
// the span that caused this one (0 = root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: start returns a dead handle and nothing is recorded.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is a handle on an open span; the zero value is inert.
type spanRef struct {
	tr *tracer
	id int
}

func (t *tracer) start(name string, parent spanRef, op int) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent.id, Op: op, Name: name, StartNs: now})
	t.mu.Unlock()
	return spanRef{tr: t, id: id}
}

func (r spanRef) end() {
	if r.tr == nil {
		return
	}
	now := int64(time.Since(r.tr.t0))
	r.tr.mu.Lock()
	r.tr.spans[r.id-1].EndNs = now
	r.tr.mu.Unlock()
}

// all returns the recorded spans (nil for the untraced run).
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

func total(ds []time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover (overlapping children count
// once).
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b span) int { return int(a.StartNs - b.StartNs) })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] += time.Duration(s.EndNs - s.StartNs - covered)
	}
	return out
}

// layerGroups are the groups layerOf sorts spans into; each has a
// share.<group> metric in BENCHMARK.json.
var layerGroups = []string{"sim", "lake_write", "refresh_alert", "query_scan", "serve", "harness"}

// layerOf maps a span name to the layer group whose share of the timed
// part the README reports. Harness spans (the operation roots) are their
// own group so that shares add up to the wall time.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "population."), strings.HasPrefix(name, "campaign."):
		return "sim"
	case name == "lake.scan", strings.HasPrefix(name, "query."):
		return "query_scan"
	case name == "lake.readdiff", strings.HasPrefix(name, "delta."), strings.HasPrefix(name, "alert."),
		strings.HasPrefix(name, "analysis."), strings.HasPrefix(name, "classify."):
		return "refresh_alert"
	case strings.HasPrefix(name, "lake."):
		return "lake_write"
	case strings.HasPrefix(name, "lakeserve."), strings.HasPrefix(name, "apiclient."):
		return "serve"
	}
	return "harness"
}

// groupSelf sums self times per layer group over the operations whose
// root span is named root: the timed part's operations, leaving out the
// spans set-up and the probes recorded.
func groupSelf(spans []span, root string) map[string]time.Duration {
	top := map[int]string{} // span ID → name of its root ancestor
	var kept []span
	for _, s := range spans { // a parent always precedes its children
		name := s.Name
		if s.Parent != 0 {
			name = top[s.Parent]
		}
		top[s.ID] = name
		if name == root {
			kept = append(kept, s)
		}
	}
	out := map[string]time.Duration{}
	for name, d := range selfTimes(kept) {
		out[layerOf(name)] += d
	}
	return out
}

// spanCost measures what one start/end pair costs on this machine, so a
// traced run can report how much of its wall time was tracing.
func spanCost() time.Duration {
	const n = 100_000
	tr := newTracer()
	tr.spans = make([]span, 0, n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tr.start("calibrate", spanRef{}, i).end()
	}
	return time.Since(t0) / n
}

// writeTrace dumps spans as JSON lines.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"btpub/internal/stats"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload, as stored in a results file.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Samples   map[string]int         `json:"samples"`
	Metrics   map[string]metricValue `json:"metrics"`
	Problems  []string               `json:"problems,omitempty"`
}

// run is the state of one workload run: its configuration, the tracer
// (nil when untraced), the scratch directory, and everything measured.
// Methods are safe for concurrent use by the load-generating clients.
type run struct {
	workload string
	seed     uint64 // what the harness generates: schedule, slice phase
	seconds  time.Duration
	outDir   string
	tr       *tracer
	tmp      *scratch

	// timedWall is the length of the timed part, set once it ends.
	timedWall time.Duration

	mu        sync.Mutex
	attempted int
	failed    int
	durs      map[string][]time.Duration
	observed  map[string][]float64
	values    map[string]float64
	problems  []string
}

func newRun(workload string, seed uint64, seconds time.Duration, outDir string, traced bool) (*run, error) {
	tmp, err := newScratch(outDir, workload)
	if err != nil {
		return nil, err
	}
	r := &run{
		workload: workload, seed: seed, seconds: seconds, outDir: outDir, tmp: tmp,
		durs: map[string][]time.Duration{}, observed: map[string][]float64{}, values: map[string]float64{},
	}
	if traced {
		r.tr = newTracer()
	}
	return r, nil
}

// timed runs fn as one call into a layer: a span when traced, a duration
// sample under name either way, and one attempted operation that counts
// as failed when fn returns an error.
func (r *run) timed(name string, parent spanRef, op int, fn func(spanRef) error) (time.Duration, error) {
	sp := r.tr.start(name, parent, op)
	t0 := time.Now()
	err := fn(sp)
	d := time.Since(t0)
	sp.end()
	r.mu.Lock()
	r.durs[name] = append(r.durs[name], d)
	r.attempted++
	if err != nil {
		r.failed++
	}
	r.mu.Unlock()
	return d, err
}

// sample records a duration measured elsewhere (no span, no operation).
func (r *run) sample(name string, d time.Duration) {
	r.mu.Lock()
	r.durs[name] = append(r.durs[name], d)
	r.mu.Unlock()
}

// count adds operations counted outside timed (HTTP round trips).
func (r *run) count(attempted, failed int) {
	r.mu.Lock()
	r.attempted += attempted
	r.failed += failed
	r.mu.Unlock()
}

// observe records one pass's value of a metric; the reported value is
// the median over passes.
func (r *run) observe(name string, v float64) {
	r.mu.Lock()
	r.observed[name] = append(r.observed[name], v)
	r.mu.Unlock()
}

func (r *run) set(name string, v float64) {
	r.mu.Lock()
	r.values[name] = v
	r.mu.Unlock()
}

// setShares reports where the traced timed part went: each layer
// group's time as a share of the groups' sum.
func (r *run) setShares(byGroup map[string]time.Duration) {
	var sum time.Duration
	for _, d := range byGroup {
		sum += d
	}
	for _, g := range layerGroups {
		r.set("share."+g, ratio(float64(byGroup[g]), float64(sum)))
	}
}

// problem records an oracle mismatch; any problem makes the run
// incorrect.
func (r *run) problem(format string, args ...any) {
	r.mu.Lock()
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func (r *run) samplesOf(name string) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]time.Duration(nil), r.durs[name]...)
}

// p50 of the duration samples under name, in milliseconds.
func (r *run) p50ms(name string) float64 { return stats.Median(ms(r.samplesOf(name))) }

// finish folds the run into a result holding exactly the metrics the
// spec lists for this mode. An end-to-end metric the workload did not
// measure is a problem; an idle layer reports 0.
func (r *run) finish(spec *benchSpec) *result {
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, vs := range r.observed {
		if _, ok := r.values[name]; !ok {
			r.values[name] = stats.Median(vs)
		}
	}
	known := map[string]bool{}
	for _, m := range spec.EndToEnd {
		known[m.Name] = true
	}
	for _, m := range spec.PerLayer {
		known[m.Name] = true
	}
	for name := range r.values {
		if !known[name] {
			r.problems = append(r.problems, fmt.Sprintf("harness bug: metric %q is not in BENCHMARK.json", name))
		}
	}
	traced := r.tr != nil
	res := &result{
		Workload: r.workload, Seed: r.seed, Seconds: int(r.seconds / time.Second), Trace: traced,
		Attempted: r.attempted, Failed: r.failed,
		Samples: map[string]int{}, Metrics: map[string]metricValue{},
	}
	for _, m := range spec.metrics(traced) {
		v, ok := r.values[m.Name]
		if !ok && !traced {
			r.problems = append(r.problems, fmt.Sprintf("end-to-end metric %q was not measured", m.Name))
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name, ds := range r.durs {
		res.Samples[name] = len(ds)
	}
	for name, vs := range r.observed {
		res.Samples[name] = len(vs)
	}
	res.Problems = r.problems
	res.Correct = len(r.problems) == 0
	return res
}

// memMark snapshots the allocator counters; since reports what was
// allocated after it.
type memMark struct{ bytes, mallocs uint64 }

func markMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{bytes: ms.TotalAlloc, mallocs: ms.Mallocs}
}

func (m memMark) since() (bytes, mallocs float64) {
	now := markMem()
	return float64(now.bytes - m.bytes), float64(now.mallocs - m.mallocs)
}

// heapWatch samples the in-use heap until stopped and reports the peak.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			h.peak = max(h.peak, ms.HeapInuse)
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the watcher and returns the largest heap it saw.
func (h *heapWatch) peakMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

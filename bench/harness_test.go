package main

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"testing"
	"time"

	"btpub/internal/dataset"
)

// These tests cover the harness's own arithmetic and its agreement with
// BENCHMARK.json. No workload runs under go test.

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*max(1, math.Abs(b)) }

// TestQuartileSpread holds the spread to what Python's
// statistics.quantiles(xs, n=4) gives: for 1..10 the quartiles are
// 2.75, 5.5, 8.25.
func TestQuartileSpread(t *testing.T) {
	var xs []float64
	for i := 10; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread of 1..10 = %v, want %v", got, want)
	}
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) = [1.75, 3.5, 5.25]
	if got, want := quartileSpread([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}), (5.25-1.75)/3.5; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if quartileSpread([]float64{7}) != 0 {
		t.Error("a single run has no spread")
	}
}

// TestMedianOfRounds: a metric observed once per round is reported as
// the median of rounds, and an explicit set wins over observations.
func TestMedianOfRounds(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{{Name: "setup_s", Unit: "s"}, {Name: "ops_per_s", Unit: "1/s"}, {Name: "wait_ms_p50", Unit: "ms"}}}
	r := &run{workload: "w", durs: map[string][]time.Duration{}, observed: map[string][]float64{}, values: map[string]float64{}}
	for _, v := range []float64{120, 90, 100} {
		r.observe("ops_per_s", v)
	}
	r.observe("wait_ms_p50", 5)
	r.set("wait_ms_p50", 7)
	r.set("setup_s", 1)
	res := r.finish(spec)
	if !res.Correct {
		t.Fatalf("problems: %v", res.Problems)
	}
	if got := res.Metrics["ops_per_s"].Value; got != 100 {
		t.Errorf("ops_per_s = %v, want the median of rounds 100", got)
	}
	if got := res.Metrics["wait_ms_p50"].Value; got != 7 {
		t.Errorf("wait_ms_p50 = %v, want the explicit 7", got)
	}
	if res.Samples["ops_per_s"] != 3 {
		t.Errorf("sample count = %d, want 3", res.Samples["ops_per_s"])
	}
}

// TestFinishFlagsGaps: an end-to-end metric nobody measured, or a metric
// name BENCHMARK.json does not list, makes the run incorrect; a per-layer
// name it does list is fine on an untraced run.
func TestFinishFlagsGaps(t *testing.T) {
	spec := &benchSpec{
		EndToEnd: []metricSpec{{Name: "setup_s", Unit: "s"}, {Name: "ops_per_s", Unit: "1/s"}},
		PerLayer: []metricSpec{{Name: "campaign.run_s", Unit: "s"}},
	}
	r := &run{durs: map[string][]time.Duration{}, observed: map[string][]float64{}, values: map[string]float64{}}
	r.set("no.such.metric", 1)
	r.set("campaign.run_s", 1)
	res := r.finish(spec)
	if res.Correct || len(res.Problems) != 1+len(spec.EndToEnd) {
		t.Errorf("problems = %q", res.Problems)
	}
}

// testDataset is a small hand-built dataset: 40 torrents by 10
// publishers over 10 days, 50 observations each.
func testDataset() *dataset.Dataset {
	start := time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)
	ds := &dataset.Dataset{Name: "t", Start: start, End: start.Add(240 * time.Hour)}
	for i := 0; i < 40; i++ {
		ds.AddTorrent(&dataset.TorrentRecord{
			TorrentID: i, InfoHash: fmt.Sprintf("%040d", i), Username: fmt.Sprintf("user%02d", i%10),
			Published: start.Add(time.Duration(i) * 5 * time.Hour),
		})
	}
	for j := 0; j < 50; j++ {
		for i := 0; i < 40; i++ {
			ds.AddObservation(dataset.Observation{
				TorrentID: i, IP: fmt.Sprintf("10.%d.%d.1", i, j),
				At: start.Add(time.Duration(i)*5*time.Hour + time.Duration(j)*time.Hour),
			})
		}
	}
	ds.Obs.SortCanonical()
	return ds
}

func scheduleKeys(sched []request) []string {
	keys := make([]string, len(sched))
	for i, req := range sched {
		keys[i] = req.key()
	}
	return keys
}

// TestScheduleDeterministic: the same (dataset, seed) gives the same
// schedule, another seed gives another, and every block of a hundred
// requests holds exactly the mix.
func TestScheduleDeterministic(t *testing.T) {
	ds := testDataset()
	a, b, c := buildSchedule(ds, 7), buildSchedule(ds, 7), buildSchedule(ds, 8)
	if len(a) != scheduleLen {
		t.Fatalf("schedule has %d requests, want %d", len(a), scheduleLen)
	}
	if !slices.Equal(scheduleKeys(a), scheduleKeys(b)) {
		t.Error("same seed, different schedules")
	}
	if slices.Equal(scheduleKeys(a), scheduleKeys(c)) {
		t.Error("different seeds, same schedule")
	}
	total := 0
	for _, m := range mixCycle {
		total += m.per100
	}
	if total != 100 {
		t.Fatalf("mix adds up to %d, want 100", total)
	}
	for block := 0; block < len(a); block += 100 {
		got := map[string]int{}
		for _, req := range a[block : block+100] {
			got[req.route+"/"+req.class]++
		}
		for _, m := range mixCycle {
			if got[m.route+"/"+m.class] != m.per100 {
				t.Fatalf("block %d has %d %s/%s requests, want %d", block/100, got[m.route+"/"+m.class], m.route, m.class, m.per100)
			}
		}
	}
	for _, req := range a {
		if req.q != nil {
			if err := req.q.Validate(); err != nil {
				t.Fatalf("%s: invalid query: %v", req.key(), err)
			}
		}
	}
}

// TestSliceDataset: every record and observation lands in exactly one
// slice, in order, whatever the phase.
func TestSliceDataset(t *testing.T) {
	ds := testDataset()
	for _, seed := range []uint64{1, 2, 3} {
		sl := sliceDataset(ds, 30, seed)
		recs := 0
		for _, rs := range sl.recs {
			recs += len(rs)
		}
		if recs != len(ds.Torrents) {
			t.Errorf("seed %d: %d records sliced, want %d", seed, recs, len(ds.Torrents))
		}
		if !slices.IsSorted(sl.obsEnd) || sl.obsEnd[len(sl.obsEnd)-1] != ds.Obs.Len() {
			t.Errorf("seed %d: observation ranges %v do not cover the %d observations in order", seed, sl.obsEnd, ds.Obs.Len())
		}
	}
}

// TestSelfTime: a span's self time is its duration minus the part its
// children cover, overlapping children counted once.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "slice", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "lake.flush", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Name: "delta.refresh", StartNs: 30, EndNs: 70}, // overlaps the flush by 10
		{ID: 4, Parent: 3, Name: "lake.readdiff", StartNs: 35, EndNs: 45},
		{ID: 5, Name: "probe", StartNs: 200, EndNs: 260},
		{ID: 6, Parent: 5, Name: "lake.scan", StartNs: 200, EndNs: 250},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"slice": 40, "lake.flush": 30, "delta.refresh": 30, "lake.readdiff": 10, "probe": 10, "lake.scan": 50}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self time of %s = %d, want %d", name, self[name], d)
		}
	}
	// Only the operations rooted at "slice" count towards the shares.
	groups := groupSelf(spans, "slice")
	if groups["harness"] != 40 || groups["lake_write"] != 30 || groups["refresh_alert"] != 40 || groups["query_scan"] != 0 {
		t.Errorf("groups = %v", groups)
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	tr.start("x", spanRef{}, 0).end()
	if tr.all() != nil {
		t.Error("the untraced run recorded spans")
	}
	live := newTracer()
	parent := live.start("a", spanRef{}, 3)
	live.start("b", parent, 3).end()
	parent.end()
	spans := live.all()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Op != 3 || spans[0].EndNs < spans[1].EndNs {
		t.Errorf("spans = %+v", spans)
	}
}

// TestCompareStatus: a metric whose spread exceeds its bound is
// unresolved, not unchanged — unless every run of B beats every run of
// A.
func TestCompareStatus(t *testing.T) {
	spec := &benchSpec{
		Workloads: []workloadSpec{{Name: "w"}},
		EndToEnd: []metricSpec{
			{Name: "lat", Unit: "ms", Better: "lower", Bound: 0.10},
			{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10},
		},
	}
	runs := func(lat, rate []float64) []*result {
		var out []*result
		for i := range lat {
			out = append(out, &result{Workload: "w", Metrics: map[string]metricValue{"lat": {Value: lat[i]}, "rate": {Value: rate[i]}}})
		}
		return out
	}
	steady := []float64{100, 101, 99, 100, 100}
	noisy := []float64{100, 140, 60, 120, 80}
	for _, c := range []struct {
		name       string
		a, b       []*result
		lat, rate  string
		latWorseBy float64
	}{
		{"same", runs(steady, steady), runs(steady, steady), statusOK, statusOK, 0},
		{"slower", runs(steady, steady), runs([]float64{120, 121, 119, 120, 120}, []float64{80, 81, 79, 80, 80}), statusWorse, statusWorse, 0.20},
		{"faster", runs(steady, steady), runs([]float64{50, 51, 49, 50, 50}, []float64{200, 201, 199, 200, 200}), statusBetter, statusBetter, -0.50},
		{"noisy", runs(noisy, noisy), runs(noisy, noisy), statusUnresolved, statusUnresolved, 0},
		{"noisy but every run better", runs(noisy, steady), runs([]float64{10, 50, 30, 40, 20}, []float64{300, 301, 299, 300, 300}), statusBetter, statusBetter, -0.70},
	} {
		rows := compare(spec, c.a, c.b)
		if len(rows) != 2 || rows[0].Status != c.lat || rows[1].Status != c.rate {
			t.Errorf("%s: rows = %+v, want %s/%s", c.name, rows, c.lat, c.rate)
			continue
		}
		if !near(rows[0].Worse, c.latWorseBy) {
			t.Errorf("%s: lat worse by %v, want %v", c.name, rows[0].Worse, c.latWorseBy)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestSpecShape: BENCHMARK.json stays within the contract's limits and
// names the workloads and layer groups the harness has code for. The
// metric names themselves live in BENCHMARK.json only; a name the
// harness sets that the file lacks fails the run (TestFinishFlagsGaps).
func TestSpecShape(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract", name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("unit %q of %s is outside the contract", unit, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		check(m.Name, m.Unit)
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range spec.PerLayer {
		check(m.Name, m.Unit)
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		check(w.Name, "")
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no code", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why is %d characters", w.Name, len(w.Why))
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v", spec.Paths)
	}
	// Every group layerOf can return has a share metric.
	for _, g := range layerGroups {
		if !seen["share."+g] {
			t.Errorf("layer group %q has no share.%s metric", g, g)
		}
	}
	for _, name := range []string{"population.generate", "campaign.run", "lake.flush", "lake.scan", "lake.readdiff", "query.execute.window", "delta.refresh", "alert.evaluate", "analysis.tables", "lakeserve.handler.query", "apiclient.query", "slice"} {
		if g := layerOf(name); !slices.Contains(layerGroups, g) {
			t.Errorf("layerOf(%q) = %q, which is not a layer group", name, g)
		}
	}
}

package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"btpub/internal/campaign"
	"btpub/internal/dataset"
	"btpub/internal/geoip"
	"btpub/internal/lake"
	"btpub/internal/population"
)

// The fixture every workload shares. Per-operation cost in the lake and
// the snapshot layers depends on how much data they hold, so a tighter
// time budget shrinks rounds, slices and request counts, never this.
//
// The world is the same on every run: across world seeds 23–32 the crawl
// sees 1.07 M to 1.75 M observations and splits them between two shards
// anywhere from 51:49 to 65:35, which moves every rate and latency by
// more than any bound could allow. The run's --seed varies what the
// harness itself generates — the request schedule and the phase of the
// replay slices.
const (
	fixtureScale         = 0.05
	fixtureMeanDownloads = 100
	worldSeed            = 23 // 2 071 torrents, 1 310 688 observations
)

// fixtureSpec is the campaign btpub-crawl would run for this world:
// one shard per core, two announce workers per vantage.
func fixtureSpec() campaign.Spec {
	return campaign.Spec{
		Scale:         fixtureScale,
		MeanDownloads: fixtureMeanDownloads,
		Scenarios:     population.AllScenarios,
		Seed:          worldSeed,
		Shards:        runtime.NumCPU(),
		Workers:       2,
	}
}

// fixtureParams is the population.Params fixtureSpec's campaign uses.
func fixtureParams() population.Params {
	p := population.DefaultParams(fixtureScale)
	p.Seed = worldSeed
	p.MeanDownloads = fixtureMeanDownloads
	p.Scenarios = population.AllScenarios
	return p
}

// lakeOptions are btpub-serve's: background compaction on.
func lakeOptions() lake.Options {
	return lake.Options{Compact: lake.CompactOptions{Auto: true}}
}

// world is one crawled fixture: the dataset the serving workloads
// ingest, the ground truth it was crawled from, and the planted fake
// identities detection is scored against.
type world struct {
	ds      *dataset.Dataset
	truth   *population.World
	db      *geoip.DB
	planted map[string]bool
}

// crawlWorld runs the fixture campaign in memory: the serving
// workloads' set-up.
func (r *run) crawlWorld(ctx context.Context) (*world, error) {
	var res *campaign.Result
	if _, err := r.timed("campaign.run", spanRef{}, 0, func(spanRef) (err error) {
		res, err = campaign.RunContext(ctx, fixtureSpec())
		return err
	}); err != nil {
		return nil, fmt.Errorf("fixture campaign: %w", err)
	}
	r.set("campaign.run_s", seconds(r.samplesOf("campaign.run")[0]))
	return &world{ds: res.Dataset, truth: res.World, db: res.DB, planted: plantedFakes(res.World, res.Dataset)}, nil
}

// plantedFakes lists the usernames of fake-class publishers that the
// crawl actually saw upload — the identities an alert can fire on.
func plantedFakes(w *population.World, ds *dataset.Dataset) map[string]bool {
	fake := map[string]bool{}
	for _, p := range w.Publishers {
		if p.Class.IsFake() {
			for _, name := range p.Usernames {
				fake[name] = true
			}
		}
	}
	seen := map[string]bool{}
	for _, t := range ds.Torrents {
		if fake[t.Username] {
			seen[t.Username] = true
		}
	}
	return seen
}

// scratch hands out directories under bench/out/tmp and removes them
// all at the end of the run.
type scratch struct {
	root string
	n    int
}

func newScratch(outDir, workload string) (*scratch, error) {
	root := filepath.Join(outDir, "tmp", fmt.Sprintf("%s-%d", workload, os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	return &scratch{root: root}, nil
}

func (s *scratch) dir(name string) string {
	s.n++
	return filepath.Join(s.root, fmt.Sprintf("%s-%d", name, s.n))
}

func (s *scratch) cleanup() { os.RemoveAll(s.root) }

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var sum int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			sum += info.Size()
		}
		return nil
	})
	return sum, err
}

// slicer cuts the campaign window into n slices of equal width on the
// data's own clock, the way a live crawl would deliver it. The seed sets
// the phase of the grid: the first boundary falls a seed-drawn fraction
// of a slice after the window opens, so every seed batches the same
// data differently.
type slicer struct {
	start time.Time
	width time.Duration
	n     int
}

func newSlicer(ds *dataset.Dataset, n int, seed uint64) slicer {
	width := ds.End.Sub(ds.Start) / time.Duration(n)
	phase := rand.New(rand.NewPCG(seed, 0x736c6963)).Float64() // "slic"
	return slicer{start: ds.Start.Add(-time.Duration(phase * float64(width))), width: width, n: n}
}

func (s slicer) of(at time.Time) int {
	return min(max(int(at.Sub(s.start)/s.width), 0), s.n-1)
}

// replaySlices groups the dataset's torrent records and observation
// index ranges by slice. Observations are in canonical (time) order, so
// each slice is a contiguous range [obsEnd[c-1], obsEnd[c]).
type replaySlices struct {
	recs   [][]*dataset.TorrentRecord
	obsEnd []int
}

func sliceDataset(ds *dataset.Dataset, n int, seed uint64) replaySlices {
	sl := newSlicer(ds, n, seed)
	out := replaySlices{recs: make([][]*dataset.TorrentRecord, n), obsEnd: make([]int, n)}
	for _, rec := range ds.Torrents {
		c := sl.of(rec.Published)
		out.recs[c] = append(out.recs[c], rec)
	}
	at := 0
	for c := 0; c < n; c++ {
		for at < ds.Obs.Len() && sl.of(ds.Obs.Time(at)) <= c {
			at++
		}
		out.obsEnd[c] = at
	}
	return out
}

// firstUploadSlice maps each planted identity to the slice of its first
// upload.
func firstUploadSlice(w *world, n int, seed uint64) map[string]int {
	sl := newSlicer(w.ds, n, seed)
	out := map[string]int{}
	for _, rec := range w.ds.Torrents {
		if !w.planted[rec.Username] {
			continue
		}
		c := sl.of(rec.Published)
		if prev, ok := out[rec.Username]; !ok || c < prev {
			out[rec.Username] = c
		}
	}
	return out
}

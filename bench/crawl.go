package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"btpub/internal/alert"
	"btpub/internal/analysis"
	"btpub/internal/campaign"
	"btpub/internal/dataset"
	"btpub/internal/delta"
	"btpub/internal/geoip"
	"btpub/internal/lake"
	"btpub/internal/population"
	"btpub/internal/stats"
)

// crawlToLake is the researcher's batch path: crawl the world into a
// fresh lake, build the analysis snapshot cold, evaluate the detection
// rules and print the paper's tables. One round is one such pipeline and
// takes the reference machine about roundBudget, so --seconds buys
// seconds/roundBudget rounds (at least one) whatever the speed of the
// code under test; the reported values are medians over rounds.
//
// The cold build is a second or less after a ten-second crawl, and a
// single timing of it swings by a third with the heap the crawl left
// behind and with the background compactor folding the import's
// segments. So each round repeats it coldBuilds times, each on a fresh
// Maintainer and Engine, and takes the median.
const (
	roundBudget = 10 * time.Second
	coldBuilds  = 5
	setupReps   = 21
)

func crawlToLake(ctx context.Context, r *run) error {
	// Set-up builds the ground truth the oracles need: the address
	// registry and the fixture world. It takes milliseconds, so all of it
	// is repeated and setup_s is the median wall time of a repetition.
	var (
		truth *population.World
		err   error
	)
	for i := 0; i < setupReps; i++ {
		if _, err := r.timed("setup", spanRef{}, 0, func(sp spanRef) error {
			db, err := geoip.DefaultDB()
			if err != nil {
				return err
			}
			_, err = r.timed("population.generate", sp, 0, func(spanRef) error {
				truth, err = population.Generate(fixtureParams(), db)
				return err
			})
			return err
		}); err != nil {
			return err
		}
	}
	r.set("setup_s", r.p50ms("setup")/1e3)
	r.set("population.generate_s", r.p50ms("population.generate")/1e3)

	var (
		lk    *lake.Lake
		lkDir string
		res   *campaign.Result
		snap  *delta.Snapshot
		eng   *alert.Engine
	)
	closeLake := func() {
		if lk != nil {
			lk.Close()
			os.RemoveAll(lkDir)
			lk = nil
		}
	}
	defer closeLake()

	// coldBuild is commit → tables printed.
	coldBuild := func(parent spanRef, op int) error {
		_, err := r.timed("wait", parent, op, func(sp spanRef) error {
			if _, err := r.timed("delta.refresh_full", sp, op, func(spanRef) error {
				snap, err = delta.NewMaintainer(lk, res.DB, 0).Refresh(ctx)
				return err
			}); err != nil {
				return err
			}
			eng = alert.NewEngine()
			r.timed("alert.evaluate", sp, op, func(spanRef) error {
				eng.Evaluate(snap)
				return nil
			})
			r.timed("analysis.tables", sp, op, func(spanRef) error {
				renderTables(snap.An)
				return nil
			})
			return nil
		})
		return err
	}

	start := time.Now()
	for round := 0; round < max(1, int(r.seconds/roundBudget)); round++ {
		closeLake()
		lkDir = r.tmp.dir("lake")
		if lk, err = lake.Open(lkDir, lakeOptions()); err != nil {
			return err
		}
		var heap *heapWatch
		if r.tr != nil {
			heap = watchHeap()
		}
		mem := markMem()
		var crawl time.Duration
		if _, err := r.timed("round", spanRef{}, round, func(root spanRef) error {
			spec := fixtureSpec()
			spec.Lake = lk
			if crawl, err = r.timed("campaign.run", root, round, func(spanRef) error {
				res, err = campaign.RunContext(ctx, spec)
				return err
			}); err != nil {
				return err
			}
			return coldBuild(root, round)
		}); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
		obs := float64(res.Dataset.NumObservations())
		bytes, mallocs := mem.since()
		if heap != nil {
			r.observe("campaign.peak_heap_mb", heap.peakMB())
		}
		for i := 1; i < coldBuilds; i++ {
			if err := coldBuild(spanRef{}, round); err != nil {
				return fmt.Errorf("round %d: %w", round, err)
			}
		}
		waits := r.samplesOf("wait")
		cold := stats.Median(ms(waits[len(waits)-coldBuilds:])) / 1e3
		r.observe("ops_per_s", obs/(seconds(crawl)+cold))
		r.observe("alloc_bytes_per_op", bytes/obs)
		r.observe("campaign.allocs_per_obs", mallocs/obs)
	}
	r.timedWall = time.Since(start)
	// With coldBuilds samples a round the p95 sits a fifth of the way
	// down from the slowest cold build to the next.
	waits := ms(r.samplesOf("wait"))
	r.set("wait_ms_p50", stats.Median(waits))
	r.set("wait_ms_p95", stats.Quantile(waits, 0.95))

	ds := res.Dataset
	if len(truth.Torrents) != len(res.World.Torrents) {
		r.problem("set-up world has %d torrents, the campaign's %d", len(truth.Torrents), len(res.World.Torrents))
	}
	planted, fired := plantedFakes(res.World, ds), firing(eng.Since(0).Alerts)
	r.set("alert.planted", float64(len(planted)))
	r.set("alert.detect_recall", recall(planted, fired))
	r.set("alert.fired", float64(len(fired)))
	r.set("campaign.run_s", stats.Median(ms(r.samplesOf("campaign.run")))/1e3)
	r.set("delta.refresh_full_ms_p50", r.p50ms("delta.refresh_full"))
	r.set("delta.full_rebuilds", float64(len(r.samplesOf("delta.refresh_full"))))
	r.set("delta.full_share", 1)
	r.set("alert.evaluate_ms_p50", r.p50ms("alert.evaluate"))
	r.set("alert.subjects_scored_p50", float64(len(snap.An.Facts.Users)))
	r.set("analysis.tables_ms", r.p50ms("analysis.tables"))

	if r.tr != nil {
		r.setShares(groupSelf(r.tr.all(), "round"))
		if err := crawlLayers(ctx, r, lk, res, snap); err != nil {
			return err
		}
	}
	if lk, err = r.finalCompact(lk, lkDir, ds.NumObservations()); err != nil {
		return err
	}
	r.checkLake(ctx, lk, ds.NumObservations(), len(ds.Torrents))
	return nil
}

// crawlLayers is the traced run's extra work on crawl_to_lake: the same
// campaign on one shard (streaming into a second lake) for the shard
// speed-up and the sharded-vs-serial equivalence oracle, the crawler's
// own counters, a direct dataset.Merge of the shard outputs, and the
// storage and analysis probes.
func crawlLayers(ctx context.Context, r *run, lk *lake.Lake, res *campaign.Result, snap *delta.Snapshot) error {
	serialDir := r.tmp.dir("lake-serial")
	serialLake, err := lake.Open(serialDir, lakeOptions())
	if err != nil {
		return err
	}
	defer os.RemoveAll(serialDir)
	defer serialLake.Close()
	spec := fixtureSpec()
	spec.Shards, spec.Lake = 1, serialLake
	serial, err := r.timed("campaign.serial_run", spanRef{}, 0, func(spanRef) error {
		_, err := campaign.RunContext(ctx, spec)
		return err
	})
	if err != nil {
		return err
	}
	r.set("campaign.serial_run_s", seconds(serial))
	r.set("campaign.shard_speedup", ratio(seconds(serial), stats.Median(ms(r.samplesOf("campaign.run")))/1e3))
	serialSnap, err := delta.NewMaintainer(serialLake, res.DB, 0).Refresh(ctx)
	if err != nil {
		return err
	}
	a, err1 := delta.Fingerprint(snap.An)
	b, err2 := delta.Fingerprint(serialSnap.An)
	if err1 != nil || err2 != nil {
		r.problem("fingerprint: %v %v", err1, err2)
	} else if a != b {
		r.problem("sharded and serial campaigns produced different analyses")
	}

	st := res.Stats()
	r.set("crawler.tracker_queries", float64(st.TrackerQueries))
	r.set("crawler.wire_probes", float64(st.WireProbes))
	r.set("crawler.rate_limited_ratio", ratio(float64(st.RateLimited), float64(st.TrackerQueries)))

	parts := make([]*dataset.Dataset, len(res.Shards))
	for i, s := range res.Shards {
		parts[i] = s.Crawler.Dataset()
	}
	d, _ := r.timed("dataset.merge", spanRef{}, 0, func(spanRef) error {
		dataset.Merge(res.Dataset.Name, parts...)
		return nil
	})
	r.set("dataset.merge_s", seconds(d))

	if err := r.probeStorage(ctx, lk); err != nil {
		return err
	}
	var an *analysis.Analysis
	d, err = r.timed("analysis.build", spanRef{}, 0, func(spanRef) error {
		an, _, err = analysis.NewFromLakeVersion(ctx, lk, res.DB, lake.Predicate{}, 0)
		return err
	})
	if err != nil {
		return err
	}
	r.set("analysis.build_s", seconds(d))
	return r.probeAnalysis(an, res.World)
}

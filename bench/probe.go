package main

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"btpub/internal/alert"
	"btpub/internal/analysis"
	"btpub/internal/dataset"
	"btpub/internal/delta"
	"btpub/internal/geoip"
	"btpub/internal/lake"
	"btpub/internal/population"
	"btpub/internal/webmon"
)

// renderTables produces the researcher's standard output from a
// snapshot: Tables 1-3 and the top-publisher ranking.
func renderTables(an *analysis.Analysis) int {
	name := an.DS.Name
	n := len(analysis.RenderSummary([]analysis.DatasetSummary{an.Summary()}))
	n += len(analysis.RenderISPTable(name, an.ISPTable(10)))
	n += len(analysis.RenderContrast(name, an.ContrastISPs(geoip.OVH, geoip.Comcast)))
	type row struct {
		name     string
		torrents int
	}
	rows := make([]row, 0, len(an.Facts.Users))
	for _, u := range an.Facts.Users {
		rows = append(rows, row{u.Username, len(u.TorrentIDs)})
	}
	slices.SortFunc(rows, func(a, b row) int {
		if d := b.torrents - a.torrents; d != 0 {
			return d
		}
		return strings.Compare(a.name, b.name)
	})
	return n + min(len(rows), 20)
}

// firing lists the subjects with a firing alert in the feed.
func firing(alerts []alert.Alert) map[string]bool {
	out := map[string]bool{}
	for _, a := range alerts {
		if a.State == alert.StateFiring {
			out[a.Subject] = true
		}
	}
	return out
}

// recall is the share of planted identities among the firing subjects.
func recall(planted, fired map[string]bool) float64 {
	hit := 0
	for name := range planted {
		if fired[name] {
			hit++
		}
	}
	return ratio(float64(hit), float64(len(planted)))
}

// checkLake is the storage oracle: the lake verifies clean and holds
// exactly the dataset's observations and torrents.
func (r *run) checkLake(ctx context.Context, lk *lake.Lake, wantObs, wantTorrents int) {
	for _, err := range lk.Verify(ctx) {
		r.problem("lake verify: %v", err)
	}
	st := lk.Stats()
	if st.Observations != int64(wantObs) {
		r.problem("lake holds %d observations, dataset has %d", st.Observations, wantObs)
	}
	if st.Torrents != wantTorrents {
		r.problem("lake holds %d torrents, dataset has %d", st.Torrents, wantTorrents)
	}
}

// checkServed is the snapshot oracle: what the server (or a harness-owned
// maintainer) serves at the lake head is indistinguishable from a
// from-scratch analysis of the head. Call it on a settled lake (after
// the final Compact); it waits for the served snapshot to reach the
// head, which a background refresh does within one rebuild.
func (r *run) checkServed(ctx context.Context, lk *lake.Lake, db *geoip.DB, served func() (*analysis.Analysis, uint64, error)) {
	for try := 0; try < 600 && ctx.Err() == nil; try++ {
		got, gotV, err := served()
		if err != nil {
			r.problem("served snapshot: %v", err)
			return
		}
		if gotV != lk.Version() {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		var want *analysis.Analysis
		var wantV uint64
		d, err := r.timed("analysis.build", spanRef{}, 0, func(spanRef) (err error) {
			want, wantV, err = analysis.NewFromLakeVersion(ctx, lk, db, lake.Predicate{}, 0)
			return err
		})
		if err != nil {
			r.problem("oracle analysis: %v", err)
			return
		}
		if gotV != wantV {
			continue
		}
		r.set("analysis.build_s", seconds(d))
		gotFP, err1 := delta.Fingerprint(got)
		wantFP, err2 := delta.Fingerprint(want)
		if err1 != nil || err2 != nil {
			r.problem("fingerprint: %v %v", err1, err2)
		} else if gotFP != wantFP {
			r.problem("served snapshot at v%d differs from a from-scratch analysis", gotV)
		}
		return
	}
	r.problem("served snapshot never settled at the lake head")
}

// servedBy reads what srv serves, kicking a refresh when it lags.
func servedBy(ctx context.Context, srv *server) func() (*analysis.Analysis, uint64, error) {
	return func() (*analysis.Analysis, uint64, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "/", nil)
		if err != nil {
			return nil, 0, err
		}
		return srv.srv.Snapshot(req)
	}
}

// probeStorage measures the storage layer directly on the workload's
// final lake: journal and segment counts, bytes per observation, and the
// full-scan rate. Traced runs only.
func (r *run) probeStorage(ctx context.Context, lk *lake.Lake) error {
	st := lk.Stats()
	r.set("lake.commits", float64(st.Commits))
	r.set("lake.segments", float64(st.Segments))
	r.set("lake.bytes_per_obs", ratio(float64(st.TotalBytes), float64(st.Observations)))
	if d, err := lk.DiffVersions(1, 0); err == nil {
		r.set("lake.retired_segments", float64(len(d.RetiredSegments)))
	}
	var rows atomic.Int64
	d, err := r.timed("lake.scan_full", spanRef{}, 0, func(spanRef) error {
		return lk.Scan(ctx, lake.Predicate{}, func(b *lake.Batch) error {
			rows.Add(int64(b.Len()))
			return nil
		})
	})
	if err != nil {
		return fmt.Errorf("full scan: %w", err)
	}
	r.set("lake.scan_full_obs_per_s", ratio(float64(rows.Load()), seconds(d)))
	return nil
}

// settle leaves the lake as a restarted server finds it: Close waits
// out the background compactor (Compact returns at once while one is
// underway), reopening replays the journal, and a synchronous Compact
// folds whatever undersized segments remain. The caller owns the
// returned handle; lk is closed.
func (r *run) settle(lk *lake.Lake, dir string) (*lake.Lake, error) {
	if err := lk.Close(); err != nil {
		return nil, err
	}
	d, err := r.timed("lake.reopen", spanRef{}, 0, func(spanRef) (err error) {
		lk, err = lake.Open(dir, lakeOptions())
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	r.set("lake.reopen_ms", seconds(d)*1e3)
	if err := lk.Compact(); err != nil {
		lk.Close()
		return nil, fmt.Errorf("compact: %w", err)
	}
	return lk, nil
}

// probeCompaction times one synchronous Compact of the whole fixture.
// How much the background compactor has already folded when a workload
// ends is a matter of timing, so the fixture is imported into a lake of
// its own with the background compactor off and folded inside the timed
// call. Traced runs only.
func (r *run) probeCompaction(ds *dataset.Dataset) error {
	lk, err := lake.Open(r.tmp.dir("lake-compact"), lake.Options{})
	if err != nil {
		return err
	}
	defer lk.Close()
	if err := lk.ImportDataset(ds); err != nil {
		return fmt.Errorf("compaction probe: %w", err)
	}
	d, err := r.timed("lake.compact", spanRef{}, 0, func(spanRef) error { return lk.Compact() })
	if err != nil {
		return fmt.Errorf("compaction probe: %w", err)
	}
	r.set("lake.compact_s", seconds(d))
	return nil
}

// finalCompact settles the lake once the workload is over (untimed as
// far as the end-to-end numbers go) and reports what a stored
// observation then costs on disk.
func (r *run) finalCompact(lk *lake.Lake, dir string, obs int) (*lake.Lake, error) {
	lk, err := r.settle(lk, dir)
	if err != nil {
		return nil, err
	}
	size, err := dirBytes(dir)
	if err != nil {
		lk.Close()
		return nil, err
	}
	r.set("disk_bytes_per_obs", ratio(float64(size), float64(obs)))
	return lk, nil
}

// probeAnalysis times the analysis consumers on a from-scratch snapshot:
// the three tables and the Section 5.1 business classification.
func (r *run) probeAnalysis(an *analysis.Analysis, truth *population.World) error {
	d, _ := r.timed("analysis.tables", spanRef{}, 0, func(spanRef) error {
		renderTables(an)
		return nil
	})
	r.set("analysis.tables_ms", seconds(d)*1e3)
	mon, err := webmon.NewDirectory(truth, truth.Params.Seed)
	if err != nil {
		return err
	}
	d, err = r.timed("classify.business", spanRef{}, 0, func(spanRef) error {
		_, _, err := an.Business(mon)
		return err
	})
	r.set("classify.business_ms", seconds(d)*1e3)
	return err
}

package btpub

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"btpub/internal/dataset"
	"btpub/internal/delta"
	"btpub/internal/geoip"
	"btpub/internal/lake"
)

// serveBenchLake builds the serving-tier benchmark fixture: a lake of
// 5k torrents × perT observations, over ~150k distinct downloader
// addresses and 250 publishers. At the default perT of 200 (~1M rows)
// full snapshot rebuilds stop being free.
func serveBenchLake(b *testing.B, perT int) (*lake.Lake, *geoip.DB) {
	b.Helper()
	const (
		torrents = 5_000
		ips      = 150_000
	)
	t0 := time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)
	ds := &dataset.Dataset{Name: "serve-bench", Start: t0, End: t0.AddDate(0, 2, 0)}
	for i := 0; i < torrents; i++ {
		ds.AddTorrent(&dataset.TorrentRecord{
			TorrentID: i, InfoHash: fmt.Sprintf("%040x", i),
			Title: fmt.Sprintf("Content.%d", i), Category: "Video > Movies",
			Username:    fmt.Sprintf("publisher%03d", i%250),
			PublisherIP: fmt.Sprintf("11.0.%d.%d", i%40, i%200),
			Published:   t0.Add(time.Duration(i) * time.Minute),
		})
		for j := 0; j < perT; j++ {
			k := (i*131 + j*7919) % ips
			ds.AddObservation(dataset.Observation{
				TorrentID: i,
				IP:        fmt.Sprintf("20.%d.%d.%d", k>>16, k>>8&255, k&255),
				At:        t0.Add(time.Duration(i)*time.Minute + time.Duration(j)*30*time.Second),
				Seeder:    j%50 == 0,
			})
		}
	}
	// Compaction runs only when a benchmark calls Compact, and then folds
	// just the appendServeDelta flushes: one is undersized, the fold of
	// two is not.
	lk, err := lake.Open(filepath.Join(b.TempDir(), "lake"), lake.Options{
		FlushRows: 1 << 16,
		Compact:   lake.CompactOptions{TargetRows: serveDeltaRows + 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { lk.Close() })
	if err := lk.ImportDataset(dataset.Merge("serve-bench", ds)); err != nil {
		b.Fatal(err)
	}
	db, err := geoip.DefaultDB()
	if err != nil {
		b.Fatal(err)
	}
	return lk, db
}

// serveBenchPerTorrent is the default fixture's rows per torrent.
const serveBenchPerTorrent = 200

// serveDeltaRows is the observation count of one appendServeDelta flush.
const serveDeltaRows = 1000

// appendServeDelta lands one small flush — 20 new torrents and 1k
// observations, the size of one refresh interval's worth of live crawl.
func appendServeDelta(b *testing.B, lk *lake.Lake, round int) {
	b.Helper()
	t0 := time.Date(2010, 6, 6, 0, 0, 0, 0, time.UTC).Add(time.Duration(round) * time.Hour)
	base := lk.NextTorrentID()
	recs := make([]*dataset.TorrentRecord, 20)
	for i := range recs {
		recs[i] = &dataset.TorrentRecord{
			TorrentID: base + i, InfoHash: fmt.Sprintf("%040x", base+i),
			Title: "Live", Category: "Video > Movies",
			Username:    fmt.Sprintf("publisher%03d", (base+i)%250),
			PublisherIP: fmt.Sprintf("11.0.%d.%d", (base+i)%40, (base+i)%200),
			Published:   t0.Add(time.Duration(i) * time.Minute),
		}
	}
	if err := lk.AddTorrents(recs); err != nil {
		b.Fatal(err)
	}
	for j := 0; j < serveDeltaRows; j++ {
		k := (round*serveDeltaRows + j*7919) % 150_000
		err := lk.Append(dataset.Observation{
			TorrentID: base + j%20,
			IP:        fmt.Sprintf("20.%d.%d.%d", k>>16, k>>8&255, k&255),
			At:        t0.Add(time.Duration(j) * time.Second),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := lk.Flush(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSnapshotRefreshIncremental measures the steady-state serving
// path: one op folds one freshly flushed segment (20 records, 1k rows)
// into a warm snapshot lineage. The per-op appends run off the clock.
// After the measured loop it times one full rebuild at the same final
// version and enforces the acceptance floor: incremental must be >= 10x
// faster than full on this lake.
//
// Measured ~16.8k allocs/op at 10x, vs ~118k for the from-scratch
// rebuild (BenchmarkSnapshotRefreshFull), and ~65x faster than it. The
// ceiling carries ~2.4x headroom.
func BenchmarkSnapshotRefreshIncremental(b *testing.B) {
	lk, db := serveBenchLake(b, serveBenchPerTorrent)
	ctx := context.Background()
	m := delta.NewMaintainer(lk, db, 0)
	if _, err := m.Refresh(ctx); err != nil {
		b.Fatal(err)
	}
	meter := meterAllocs(b, 40_000)
	for i := 0; i < b.N; i++ {
		meter.pause()
		appendServeDelta(b, lk, i)
		meter.resume()
		snap, err := m.Refresh(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if snap.Mode != delta.ModeDelta {
			b.Fatalf("op %d: mode = %s (%s)", i, snap.Mode, snap.Reason)
		}
	}
	meter.check()
	requireTenfold(b, lk, m, db)
}

// requireTenfold times one full rebuild of lk at m's snapshot version
// and fails b unless its timed ops averaged >= 10x faster.
func requireTenfold(b *testing.B, lk *lake.Lake, m *delta.Maintainer, db *geoip.DB) {
	b.Helper()
	perOp := b.Elapsed() / time.Duration(b.N)
	fullStart := time.Now()
	fullSnap, err := delta.NewMaintainer(lk, db, 0).Refresh(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	fullDur := time.Since(fullStart)
	if fullSnap.Version != m.Snapshot().Version {
		b.Fatalf("full rebuild at v%d, incremental at v%d", fullSnap.Version, m.Snapshot().Version)
	}
	ratio := float64(fullDur) / float64(perOp)
	b.ReportMetric(ratio, "full/incr")
	if ratio < 10 {
		b.Fatalf("incremental refresh only %.1fx faster than full (incremental %v/op, full %v) — acceptance floor is 10x",
			ratio, perOp, fullDur)
	}
}

// BenchmarkSnapshotRefreshAfterCompaction measures the refresh that
// follows a compaction: per op, off the clock, two appendServeDelta
// flushes are folded into the snapshot and lk.Compact rewrites them into
// one segment; the timed refresh then crosses that rewrite. It must stay
// a delta refresh that changes nobody, and like the incremental path it
// must beat one full rebuild at the final version by >= 10x.
//
// Measured ~14.4k allocs/op at 10x, ~135x faster than the full
// rebuild: the fold reads no rows, and what it allocates is the
// per-refresh analysis rebuild every delta refresh pays. The ceiling
// keeps the incremental benchmark's ~2.5x headroom.
func BenchmarkSnapshotRefreshAfterCompaction(b *testing.B) {
	lk, db := serveBenchLake(b, serveBenchPerTorrent)
	ctx := context.Background()
	m := delta.NewMaintainer(lk, db, 0)
	if _, err := m.Refresh(ctx); err != nil {
		b.Fatal(err)
	}
	meter := meterAllocs(b, 35_000)
	for i := 0; i < b.N; i++ {
		meter.pause()
		appendServeDelta(b, lk, 2*i)
		appendServeDelta(b, lk, 2*i+1)
		if _, err := m.Refresh(ctx); err != nil {
			b.Fatal(err)
		}
		v := lk.Version()
		if err := lk.Compact(); err != nil {
			b.Fatal(err)
		}
		if lk.Version() != v+1 {
			b.Fatalf("op %d: compaction committed nothing", i)
		}
		meter.resume()
		snap, err := m.Refresh(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if snap.Mode != delta.ModeDelta || len(snap.Changed) != 0 || snap.Version != v+1 {
			b.Fatalf("op %d: refresh across the compaction = v%d %s (%s), %d changed", i, snap.Version, snap.Mode, snap.Reason, len(snap.Changed))
		}
	}
	meter.check()
	requireTenfold(b, lk, m, db)
}

// BenchmarkSnapshotRefreshFull measures the cold fold: one op is the
// first build of a fresh maintainer over the default fixture (~1M rows),
// the build crawl_to_lake and every server start pay. Its allocs/op
// ceiling keeps the per-IP distinct-download sets built in bulk — one
// counting sort and a shared backing array, not an insert per row.
//
// Measured ~119k allocs/op before the sets existed; the ceiling leaves
// ~25% on top of that.
func BenchmarkSnapshotRefreshFull(b *testing.B) {
	lk, db := serveBenchLake(b, serveBenchPerTorrent)
	ctx := context.Background()
	meter := meterAllocs(b, 150_000)
	for i := 0; i < b.N; i++ {
		snap, err := delta.NewMaintainer(lk, db, 0).Refresh(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if snap.Mode != delta.ModeFull {
			b.Fatalf("op %d: mode = %s (%s)", i, snap.Mode, snap.Reason)
		}
	}
	meter.check()
}

// BenchmarkSnapshotRefreshScaling is the size-scaling gate of the delta
// refresh: the same 1k-row appendServeDelta folds into the fixture at
// 200 and at 800 rows per torrent (1M and 4M rows). Torrents, publishers
// and addresses stay fixed, so only work that grows with the row count
// tells the two lakes apart. Each op times scalingRefreshes refreshes
// per lake, alternating the lakes, after scalingWarmups untimed ones
// each, and the benchmark fails
// itself when the 4M/1M ratio of the median refresh's wall time or of
// the mean bytes allocated per refresh exceeds 1.5. The median keeps a
// GC cycle or a scheduler stall in one refresh from deciding the gate;
// allocation is deterministic and needs no such guard. The warm-ups
// take the columns' one regrowth out of the window: a cold build sizes
// them to its rows plus what rounds the allocation up to a whole 8 KB
// page — at most 2047 int32 rows — and the first fold past that slack
// copies them into a quarter's headroom.
//
// A refresh that copies every column, rebuilds the per-torrent index
// and recounts distinct downloads over whole spans measures 4.4–5.5x
// (time) and 3.3x (bytes) here; growing them in place measures about
// 1.05x and 1.14x.
func BenchmarkSnapshotRefreshScaling(b *testing.B) {
	const scalingRefreshes, scalingWarmups = 10, 3
	ctx := context.Background()
	type fixture struct {
		lk    *lake.Lake
		m     *delta.Maintainer
		round int
		took  []time.Duration
		bytes uint64
	}
	refresh := func(f *fixture, timed bool) {
		b.StopTimer()
		appendServeDelta(b, f.lk, f.round)
		f.round++
		runtime.ReadMemStats(&memStats)
		before := memStats.TotalAlloc
		b.StartTimer()
		start := time.Now()
		snap, err := f.m.Refresh(ctx)
		took := time.Since(start)
		runtime.ReadMemStats(&memStats)
		if err != nil {
			b.Fatal(err)
		}
		if snap.Mode != delta.ModeDelta {
			b.Fatalf("refresh %d: mode = %s (%s)", f.round, snap.Mode, snap.Reason)
		}
		if timed {
			f.took = append(f.took, took)
			f.bytes += memStats.TotalAlloc - before
		}
	}
	var fixtures []*fixture
	for _, perT := range []int{serveBenchPerTorrent, 4 * serveBenchPerTorrent} {
		lk, db := serveBenchLake(b, perT)
		f := &fixture{lk: lk, m: delta.NewMaintainer(lk, db, 0)}
		if _, err := f.m.Refresh(ctx); err != nil {
			b.Fatal(err)
		}
		for range scalingWarmups {
			refresh(f, false)
		}
		fixtures = append(fixtures, f)
	}
	// Collect the fixtures' build garbage before timing, and alternate
	// the lakes refresh by refresh, so a GC cycle lands on both alike.
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for range scalingRefreshes {
			for _, f := range fixtures {
				refresh(f, true)
			}
		}
	}
	b.StopTimer()
	small, large := fixtures[0], fixtures[1]
	median := func(ds []time.Duration) float64 {
		slices.Sort(ds)
		return float64(ds[len(ds)/2].Nanoseconds())
	}
	nsSmall, nsLarge := median(small.took), median(large.took)
	bSmall := float64(small.bytes) / float64(len(small.took))
	bLarge := float64(large.bytes) / float64(len(large.took))
	b.ReportMetric(nsSmall/1e6, "ms/refresh-1M")
	b.ReportMetric(nsLarge/1e6, "ms/refresh-4M")
	b.ReportMetric(nsLarge/nsSmall, "4M/1M-ns")
	b.ReportMetric(bLarge/bSmall, "4M/1M-B")
	if nsLarge/nsSmall > 1.5 || bLarge/bSmall > 1.5 {
		b.Fatalf("refresh cost scales with the lake: 4M/1M = %.2fx time (%.1f vs %.1f ms), %.2fx bytes (%.1f vs %.1f MB); the gate is 1.5x",
			nsLarge/nsSmall, nsLarge/1e6, nsSmall/1e6, bLarge/bSmall, bLarge/1e6, bSmall/1e6)
	}
}

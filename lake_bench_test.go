package btpub

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"btpub/internal/dataset"
	"btpub/internal/lake"
)

// lakeBenchDataset builds a crawl-shaped dataset: torrents × obsPerTorrent
// observations over ~6k distinct addresses with forward-marching
// timestamps — the same shape as the dataset codec benchmarks.
func lakeBenchDataset(torrents, obsPerTorrent int) *dataset.Dataset {
	t0 := time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)
	d := &dataset.Dataset{Name: "bench", Start: t0, End: t0.AddDate(0, 1, 0)}
	for i := 0; i < torrents; i++ {
		d.AddTorrent(&dataset.TorrentRecord{TorrentID: i, InfoHash: fmt.Sprintf("%040x", i), Published: t0})
		for j := 0; j < obsPerTorrent; j++ {
			k := (i*131 + j*17) % 6000
			d.AddObservation(dataset.Observation{
				TorrentID: i,
				IP:        fmt.Sprintf("10.%d.%d.%d", k/62500, k/250%250, k%250),
				At:        t0.Add(time.Duration(i*obsPerTorrent+j) * time.Second),
				Seeder:    j == 0,
			})
		}
	}
	return d
}

// BenchmarkLakeIngest measures end-to-end ingest throughput: one op
// imports a 50k-observation dataset into a fresh lake (segment encode,
// fsync, manifest commit included) and closes it. PR 3 measured ~1.1k
// allocs/op — ~0.02 allocs per observation.
func BenchmarkLakeIngest(b *testing.B) {
	ds := lakeBenchDataset(100, 500)
	root := b.TempDir()
	b.SetBytes(int64(ds.NumObservations()))
	m := meterAllocs(b, 1700)
	for i := 0; i < b.N; i++ {
		lk, err := lake.Open(filepath.Join(root, fmt.Sprintf("lake-%d", i)), lake.Options{FlushRows: 1 << 14})
		if err != nil {
			b.Fatal(err)
		}
		if err := lk.ImportDataset(ds); err != nil {
			b.Fatal(err)
		}
		if err := lk.Close(); err != nil {
			b.Fatal(err)
		}
	}
	m.check()
}

// BenchmarkLakeScanCompressed measures full-scan decode throughput over
// a 1M-observation lake of delta/varint/dictionary segments: one op scans
// every row of every segment. The lake's Stats.TotalBytes (segments +
// journal) is reported beside it as the disk-bytes metric (~5.2 bytes
// per observation vs ~17 fixed-width); bench/ tracks the whole
// directory as disk_bytes_per_obs. Measured ~310 allocs/op — the columns
// and one dictionary allocation per segment, ~96k before PR 16; the
// ceiling carries ~2x headroom.
func BenchmarkLakeScanCompressed(b *testing.B) {
	ds := lakeBenchDataset(200, 5_000) // 1M observations
	lk, err := lake.Open(filepath.Join(b.TempDir(), "lake"), lake.Options{FlushRows: 1 << 16})
	if err != nil {
		b.Fatal(err)
	}
	defer lk.Close()
	if err := lk.ImportDataset(ds); err != nil {
		b.Fatal(err)
	}
	rows := int64(ds.NumObservations())
	b.SetBytes(rows)
	ctx := context.Background()
	m := meterAllocs(b, 600)
	for i := 0; i < b.N; i++ {
		n := int64(0)
		err := lk.Scan(ctx, lake.Predicate{}, func(batch *lake.Batch) error {
			n += int64(batch.Len())
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if n != rows {
			b.Fatalf("scan saw %d rows, want %d", n, rows)
		}
	}
	m.check()
	b.ReportMetric(float64(lk.Stats().TotalBytes), "disk-bytes")
}

// BenchmarkLakeScan measures predicate-scan latency over a committed
// multi-segment lake: one op scans a time+torrent pushdown window (zone
// maps prune most segments) and counts the matches. A segment decode
// makes one allocation for its whole address dictionary (PR 16; one per
// address before, ~10.5k allocs/op), so it measures ~70 allocs/op
// steady-state and ~100 on a cold 1x bench-smoke pass; the ceiling
// covers the cold pass twice over.
func BenchmarkLakeScan(b *testing.B) {
	ds := lakeBenchDataset(100, 500)
	lk, err := lake.Open(filepath.Join(b.TempDir(), "lake"), lake.Options{FlushRows: 1 << 12})
	if err != nil {
		b.Fatal(err)
	}
	defer lk.Close()
	if err := lk.ImportDataset(ds); err != nil {
		b.Fatal(err)
	}
	t0 := ds.Start
	pred := lake.Predicate{
		MinTime:    t0.Add(45_000 * time.Second),
		MaxTime:    t0.Add(48_000 * time.Second),
		TorrentIDs: []int{90, 91, 92, 93, 94, 95},
	}
	ctx := context.Background()
	m := meterAllocs(b, 200)
	for i := 0; i < b.N; i++ {
		n := 0
		err := lk.Scan(ctx, pred, func(batch *lake.Batch) error {
			n += batch.Len()
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("scan matched nothing")
		}
	}
	m.check()
}

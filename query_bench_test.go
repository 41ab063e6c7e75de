package btpub

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"btpub/internal/dataset"
	"btpub/internal/geoip"
	"btpub/internal/lake"
	"btpub/internal/query"
)

// queryBenchQuery is the grouped aggregate both executors run: a 2%
// time window of the 1M-observation store, bucketed at 30 minutes with
// three aggregates. On the lake path zone maps prune all but 1–2
// segments before they are opened.
func queryBenchQuery(start time.Time, totalSeconds int) query.Query {
	window := time.Duration(totalSeconds) * time.Second * 2 / 100
	return query.Query{
		Filter: query.Filter{
			MinTime: start.Add(time.Duration(totalSeconds)*time.Second - window),
		},
		GroupBy: query.GroupBy{Key: query.ByTimeBucket, Bucket: query.Duration(30 * time.Minute)},
		Aggs:    []string{query.AggObservations, query.AggDistinctIPs, query.AggSeeders},
	}
}

// queryBenchDataset is the 1M-observation fixture shared by both query
// benchmarks (2000 torrents × 500 observations, ~6k distinct IPs).
func queryBenchDataset() *dataset.Dataset {
	return lakeBenchDataset(2000, 500)
}

// BenchmarkQueryLake measures the lake executor end to end on a
// 1M-observation lake: plan compilation, zone-map pruning, segment
// decode, streamed aggregation. Setup (ingest) is untimed. Zone maps
// prune all but 1-2 segments and the collector memoizes group keys:
// measured ~510 allocs/op, ~710 on a cold 1x pass (~6.5k while every
// dictionary entry was its own allocation); the ceiling carries ~50%+
// headroom.
func BenchmarkQueryLake(b *testing.B) {
	ds, ex := queryBenchLake(b)
	q := queryBenchQuery(ds.Start, ds.NumObservations())
	ctx := context.Background()
	m := meterAllocs(b, 1500)
	for i := 0; i < b.N; i++ {
		res, err := ex.Execute(ctx, q)
		if err != nil {
			b.Fatal(err)
		}
		if res.Total == 0 {
			b.Fatal("benchmark query matched nothing")
		}
	}
	m.check()
}

// queryBenchLake ingests the shared 1M-observation fixture into a
// fresh lake and returns an executor over it (setup is untimed).
func queryBenchLake(b *testing.B) (*dataset.Dataset, *query.Lake) {
	b.Helper()
	ds := queryBenchDataset()
	lk, err := lake.Open(filepath.Join(b.TempDir(), "lake"), lake.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { lk.Close() })
	if err := lk.ImportDataset(ds); err != nil {
		b.Fatal(err)
	}
	db, err := geoip.DefaultDB()
	if err != nil {
		b.Fatal(err)
	}
	ex, err := query.NewLake(lk, db)
	if err != nil {
		b.Fatal(err)
	}
	return ds, ex
}

// BenchmarkQueryLakeFull runs a grouped aggregate with no time filter
// over the uncompacted import, so every segment is opened and the scan
// cost dominates. All ~8 segments are opened after the untimed warm-up
// run; measured ~42.2k allocs/op, the per-group distinct-IP sets
// (~90.2k before PR 16, half of it per-address dictionary strings). The
// ceiling carries ~50% headroom.
func BenchmarkQueryLakeFull(b *testing.B) {
	_, ex := queryBenchLake(b)
	benchQuery(b, ex, query.Query{
		GroupBy: query.GroupBy{Key: query.ByTorrent},
		Aggs:    []string{query.AggObservations, query.AggDistinctIPs, query.AggSeeders},
		OrderBy: query.OrderBy{Field: query.AggObservations, Desc: true},
		Limit:   100,
	}, 65_000)
}

// BenchmarkQueryPointLookup measures a single-IP lookup against a
// 1M-observation lake whose segments hold mostly disjoint address sets:
// the planner's postings pass prunes every segment but the
// one holding the address, so an op is one postings consult (cached
// after the first op) plus one segment scan: measured ~65 allocs/op
// (~131k while the opened segment's ~125k dictionary entries were one
// allocation each). The ceiling carries ~3x headroom: the count is small
// enough for runtime noise to show.
func BenchmarkQueryPointLookup(b *testing.B) {
	t0 := time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)
	lk, err := lake.Open(filepath.Join(b.TempDir(), "lake"), lake.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer lk.Close()
	const total = 1_000_000
	const target = "198.51.100.7"
	for i := 0; i < total; i++ {
		ip := fmt.Sprintf("10.%d.%d.%d", (i>>16)&255, (i>>8)&255, i&255)
		if i == 600_000 {
			ip = target
		}
		err := lk.Append(dataset.Observation{
			TorrentID: i % 1000, IP: ip,
			At: t0.Add(time.Duration(i) * time.Second), Seeder: i%64 == 0,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := lk.Flush(); err != nil {
		b.Fatal(err)
	}
	db, err := geoip.DefaultDB()
	if err != nil {
		b.Fatal(err)
	}
	ex, err := query.NewLake(lk, db)
	if err != nil {
		b.Fatal(err)
	}
	benchQuery(b, ex, query.Query{
		Filter:  query.Filter{IPs: []string{target}},
		GroupBy: query.GroupBy{Key: query.ByTorrent},
		Aggs:    []string{query.AggObservations},
	}, 200)
}

// benchQuery is the timed loop shared by the query benchmarks. One
// untimed warm-up run populates the lake's per-file caches (segment
// postings, torrent metadata), so the measured ops — and the ceiling
// allocs/op on them — reflect steady state rather than first-touch
// decode cost.
func benchQuery(b *testing.B, ex *query.Lake, q query.Query, ceiling uint64) {
	b.Helper()
	ctx := context.Background()
	if _, err := ex.Execute(ctx, q); err != nil {
		b.Fatal(err)
	}
	m := meterAllocs(b, ceiling)
	for i := 0; i < b.N; i++ {
		res, err := ex.Execute(ctx, q)
		if err != nil {
			b.Fatal(err)
		}
		if res.Total == 0 {
			b.Fatal("benchmark query matched nothing")
		}
	}
	m.check()
}

// BenchmarkQueryMemory runs the identical query through the in-memory
// executor over the same 1M observations — the baseline the lake
// executor's pushdown is measured against. Measured ~450 allocs/op; the
// ceiling carries ~50%+ headroom.
func BenchmarkQueryMemory(b *testing.B) {
	ds := queryBenchDataset()
	db, err := geoip.DefaultDB()
	if err != nil {
		b.Fatal(err)
	}
	ex, err := query.NewMemory(ds, db)
	if err != nil {
		b.Fatal(err)
	}
	q := queryBenchQuery(ds.Start, ds.NumObservations())
	ctx := context.Background()
	m := meterAllocs(b, 1500)
	for i := 0; i < b.N; i++ {
		res, err := ex.Execute(ctx, q)
		if err != nil {
			b.Fatal(err)
		}
		if res.Total == 0 {
			b.Fatal("benchmark query matched nothing")
		}
	}
	m.check()
}

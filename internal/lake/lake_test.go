package lake_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"btpub/internal/analysis"
	"btpub/internal/campaign"
	"btpub/internal/dataset"
	"btpub/internal/geoip"
	"btpub/internal/lake"
)

var (
	campOnce sync.Once
	campRes  *campaign.Result
	campErr  error
)

// campaignDataset runs one small end-to-end campaign, shared by every
// test that needs a realistic canonical dataset.
func campaignDataset(t *testing.T) (*dataset.Dataset, *geoip.DB) {
	t.Helper()
	campOnce.Do(func() {
		campRes, campErr = campaign.Run(campaign.Spec{Scale: 0.01, Seed: 7, MeanDownloads: 120, Shards: 2})
	})
	if campErr != nil {
		t.Fatal(campErr)
	}
	return campRes.Dataset, campRes.DB
}

// serializeDataset renders a dataset to its canonical JSONL bytes.
func serializeDataset(t *testing.T, ds *dataset.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// analysisFingerprint renders the paper tables the acceptance criteria
// pin: Table 1/2/3, Figure 1 skewness, Figure 2 content types, Figure 4
// seeding, and the Section 6 income estimate.
func analysisFingerprint(t *testing.T, a *analysis.Analysis) string {
	t.Helper()
	name := a.DS.Name
	var b strings.Builder
	b.WriteString(analysis.RenderSummary([]analysis.DatasetSummary{a.Summary()}))
	b.WriteString(analysis.RenderSkewness(name, a.Skewness()))
	b.WriteString(analysis.RenderISPTable(name, a.ISPTable(10)))
	b.WriteString(analysis.RenderContrast(name, a.ContrastISPs(geoip.OVH, geoip.Comcast)))
	b.WriteString(analysis.RenderContentTypes(name, a.ContentTypes()))
	b.WriteString(analysis.RenderSeeding(name, a.Seeding(0)))
	b.WriteString(analysis.RenderHostingIncome(name, a.HostingIncomeFor(geoip.OVH)))
	return b.String()
}

// TestImportMaterializeByteIdentical: a dataset imported into the lake
// and materialized back must serialize byte-identically to the original
// JSONL form, for any segment-flush size, after a close/reopen cycle,
// and after compaction.
func TestImportMaterializeByteIdentical(t *testing.T) {
	ds, _ := campaignDataset(t)
	want := serializeDataset(t, ds)
	ctx := context.Background()

	for _, flushRows := range []int{257, 4096, 1 << 17} {
		t.Run(fmt.Sprintf("flush%d", flushRows), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "lake")
			lk, err := lake.Open(dir, lake.Options{FlushRows: flushRows})
			if err != nil {
				t.Fatal(err)
			}
			if err := lk.ImportDataset(ds); err != nil {
				t.Fatal(err)
			}
			if err := lk.Close(); err != nil {
				t.Fatal(err)
			}

			lk, err = lake.Open(dir, lake.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer lk.Close()
			mat, _, err := lk.Materialize(ctx, lake.Predicate{})
			if err != nil {
				t.Fatal(err)
			}
			if got := serializeDataset(t, mat); !bytes.Equal(got, want) {
				t.Fatalf("materialized dataset differs from original (flush %d): %d vs %d bytes",
					flushRows, len(got), len(want))
			}

			if err := lk.Compact(); err != nil {
				t.Fatal(err)
			}
			mat, _, err = lk.Materialize(ctx, lake.Predicate{})
			if err != nil {
				t.Fatal(err)
			}
			if got := serializeDataset(t, mat); !bytes.Equal(got, want) {
				t.Fatal("materialized dataset differs after compaction")
			}
		})
	}
}

// TestAnalysisGoldenEquivalence pins the full analysis fingerprint: the
// lake path must reproduce the JSONL path's rendered tables exactly.
func TestAnalysisGoldenEquivalence(t *testing.T) {
	ds, db := campaignDataset(t)
	direct, err := analysis.New(ds, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := analysisFingerprint(t, direct)

	dir := filepath.Join(t.TempDir(), "lake")
	lk, err := lake.Open(dir, lake.Options{FlushRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()
	if err := lk.ImportDataset(ds); err != nil {
		t.Fatal(err)
	}
	fromLake, _, err := analysis.NewFromLakeVersion(context.Background(), lk, db, lake.Predicate{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := analysisFingerprint(t, fromLake); got != want {
		t.Fatalf("lake analysis diverged from JSONL analysis:\n--- lake ---\n%s\n--- jsonl ---\n%s", got, want)
	}

	if err := lk.Compact(); err != nil {
		t.Fatal(err)
	}
	fromLake, _, err = analysis.NewFromLakeVersion(context.Background(), lk, db, lake.Predicate{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := analysisFingerprint(t, fromLake); got != want {
		t.Fatal("lake analysis diverged after compaction")
	}
}

// TestIncrementalImportOffsets: successive imports must not collide on
// torrent IDs, and the union must stay scannable.
func TestIncrementalImportOffsets(t *testing.T) {
	t0 := time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)
	mk := func(name string, n int) *dataset.Dataset {
		d := &dataset.Dataset{Name: name, Start: t0, End: t0.Add(24 * time.Hour)}
		for i := 0; i < n; i++ {
			d.AddTorrent(&dataset.TorrentRecord{
				TorrentID: i, InfoHash: fmt.Sprintf("%040d", i), Title: name,
				Published: t0.Add(time.Duration(i) * time.Minute),
			})
			d.AddObservation(dataset.Observation{
				TorrentID: i, IP: fmt.Sprintf("10.0.%d.%d", i/250, i%250),
				At: t0.Add(time.Duration(i) * time.Minute), Seeder: i%2 == 0,
			})
		}
		return d
	}
	dir := filepath.Join(t.TempDir(), "lake")
	lk, err := lake.Open(dir, lake.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()
	if err := lk.ImportDataset(mk("crawl-a", 5)); err != nil {
		t.Fatal(err)
	}
	if got := lk.NextTorrentID(); got != 5 {
		t.Fatalf("NextTorrentID = %d, want 5", got)
	}
	if err := lk.ImportDataset(mk("crawl-b", 3)); err != nil {
		t.Fatal(err)
	}
	st := lk.Stats()
	if st.Torrents != 8 || st.Observations != 8 {
		t.Fatalf("stats = %+v, want 8 torrents / 8 observations", st)
	}
	mat, _, err := lk.Materialize(context.Background(), lake.Predicate{})
	if err != nil {
		t.Fatal(err)
	}
	if len(mat.Torrents) != 8 || mat.NumObservations() != 8 || mat.DroppedObservations != 0 {
		t.Fatalf("materialized union = %d torrents, %d obs, %d dropped",
			len(mat.Torrents), mat.NumObservations(), mat.DroppedObservations)
	}
}

// TestZoneMapSkip builds a 1M-observation lake and asserts a
// time+torrent predicate scan prunes most segments without opening them.
func TestZoneMapSkip(t *testing.T) {
	t0 := time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)
	dir := filepath.Join(t.TempDir(), "lake")
	lk, err := lake.Open(dir, lake.Options{FlushRows: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()
	const total = 1_000_000
	for i := 0; i < total; i++ {
		err := lk.Append(dataset.Observation{
			TorrentID: i % 1000,
			IP:        fmt.Sprintf("10.%d.%d.%d", i%4, (i/4)%250, (i/1000)%250),
			At:        t0.Add(time.Duration(i) * time.Second),
			Seeder:    i%64 == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := lk.Flush(); err != nil {
		t.Fatal(err)
	}
	st := lk.Stats()
	if st.Observations != total {
		t.Fatalf("observations = %d", st.Observations)
	}
	if st.Segments < 10 {
		t.Fatalf("segments = %d, want many (FlushRows 65536 over 1M rows)", st.Segments)
	}

	// Predicate covering only the newest ~2% of the time range, further
	// narrowed to a torrent subset.
	pred := lake.Predicate{
		MinTime:    t0.Add(time.Duration(total-20_000) * time.Second),
		TorrentIDs: []int{1, 2, 3},
	}
	matched := 0
	before := lk.Stats()
	err = lk.Scan(context.Background(), pred, func(b *lake.Batch) error {
		matched += b.Len()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	after := lk.Stats()
	read := after.SegmentsRead - before.SegmentsRead
	skipped := after.SegmentsSkipped - before.SegmentsSkipped
	if read+skipped != int64(st.Segments) {
		t.Fatalf("read %d + skipped %d != %d segments", read, skipped, st.Segments)
	}
	if read >= int64(st.Segments) {
		t.Fatalf("zone maps pruned nothing: read all %d segments", read)
	}
	if read > 2 {
		t.Fatalf("time pushdown too weak: read %d of %d segments for a 2%% window", read, st.Segments)
	}
	// Brute-force expectation: tids 1..3 appear once per 1000 rows within
	// the last 20_000 seconds (inclusive bound).
	want := 0
	for i := total - 20_000; i < total; i++ {
		if m := i % 1000; m >= 1 && m <= 3 {
			want++
		}
	}
	if matched != want {
		t.Fatalf("matched %d rows, want %d", matched, want)
	}

}

// TestIPPostingsSkip: postings prune equality scans exactly — the plan
// opens only the segment that holds the address, the scan reads no more
// than the plan said, and an address never written opens nothing. The
// same holds after compaction has folded everything into one segment
// whose zone maps admit every key, and from a cold handle on that lake.
func TestIPPostingsSkip(t *testing.T) {
	t0 := time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "lake")
	lk, err := lake.Open(dir, lake.Options{FlushRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { lk.Close() }()
	const segs = 12
	for s := 0; s < segs; s++ {
		ip := fmt.Sprintf("10.1.1.%d", s)
		for i := 0; i < 100; i++ {
			// Even torrent IDs only, so an odd one is inside every zone map
			// that spans two segments and on no row.
			if err := lk.Append(dataset.Observation{TorrentID: 2 * s, IP: ip, At: t0.Add(time.Duration(s*100+i) * time.Second)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := lk.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := lk.Stats(); st.Segments != segs {
		t.Fatalf("segments = %d, want %d", st.Segments, segs)
	}
	pred := lake.Predicate{IP: "10.1.1.7"}
	plan, err := lk.PlanScan(pred)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Opened) != 1 || plan.PrunedPostings != segs-1 {
		t.Fatalf("plan opens %d segments and prunes %d on postings, want 1 and %d", len(plan.Opened), plan.PrunedPostings, segs-1)
	}
	before := lk.Stats()
	matched := 0
	if err := lk.Scan(ctx, pred, func(b *lake.Batch) error {
		matched += b.Len()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	after := lk.Stats()
	if matched != 100 {
		t.Fatalf("matched %d rows, want 100", matched)
	}
	if read := after.SegmentsRead - before.SegmentsRead; read != int64(len(plan.Opened)) {
		t.Fatalf("scan read %d of %d segments, plan said %d", read, segs, len(plan.Opened))
	}
	// An address never written anywhere is pruned without any read.
	before = lk.Stats()
	if err := lk.Scan(ctx, lake.Predicate{IP: "192.0.2.99"}, func(b *lake.Batch) error {
		t.Fatal("matched an address that was never written")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	after = lk.Stats()
	if read := after.SegmentsRead - before.SegmentsRead; read != 0 {
		t.Fatalf("unseen address read %d segments", read)
	}

	// One compacted segment: zone maps can prune nothing, postings still do.
	if err := lk.Compact(); err != nil {
		t.Fatal(err)
	}
	compacted := func(handle string) {
		t.Helper()
		if st := lk.Stats(); st.Segments != 1 {
			t.Fatalf("%s: segments = %d after compaction, want 1", handle, st.Segments)
		}
		got := 0
		if err := lk.Scan(ctx, pred, func(b *lake.Batch) error { got += b.Len(); return nil }); err != nil || got != 100 {
			t.Fatalf("%s: present address matched %d rows (err %v), want 100", handle, got, err)
		}
		for _, absent := range []lake.Predicate{{IP: "192.0.2.99"}, {TorrentIDs: []int{7}}} {
			plan, err := lk.PlanScan(absent)
			if err != nil {
				t.Fatal(err)
			}
			if plan.PrunedPostings != 1 || plan.PrunedZone != 0 || len(plan.Opened) != 0 {
				t.Fatalf("%s: plan for absent key %+v = %+v, want the one segment pruned on postings", handle, absent, plan)
			}
			before := lk.Stats()
			if err := lk.Scan(ctx, absent, func(b *lake.Batch) error {
				t.Fatalf("%s: matched absent key %+v", handle, absent)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if after := lk.Stats(); after.SegmentsRead != before.SegmentsRead || after.SegmentsSkippedPostings != before.SegmentsSkippedPostings+1 {
				t.Fatalf("%s: absent key %+v: stats %+v -> %+v, want no read and one postings skip", handle, absent, before, after)
			}
		}
	}
	compacted("compacting handle")
	if err := lk.Close(); err != nil {
		t.Fatal(err)
	}
	if lk, err = lake.Open(dir, lake.Options{}); err != nil {
		t.Fatal(err)
	}
	compacted("cold handle")
}

// TestSeederPushdown exercises the SeedersOnly row filter.
func TestSeederPushdown(t *testing.T) {
	t0 := time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)
	lk, err := lake.Open(filepath.Join(t.TempDir(), "lake"), lake.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()
	for i := 0; i < 100; i++ {
		if err := lk.Append(dataset.Observation{TorrentID: 0, IP: "10.0.0.1", At: t0.Add(time.Duration(i) * time.Minute), Seeder: i%10 == 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lk.Flush(); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := lk.Scan(context.Background(), lake.Predicate{SeedersOnly: true}, func(b *lake.Batch) error {
		for k := 0; k < b.Len(); k++ {
			if !b.Seeder(k) {
				t.Error("non-seeder row passed SeedersOnly")
			}
		}
		n += b.Len()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("seeder rows = %d, want 10", n)
	}
}

// TestScanSequential: Scan runs its callback on the caller's goroutine,
// one batch at a time — a call never overlaps another — and hands the
// segments over in commit order, so on a lake written in time order
// each batch starts no earlier than the previous one ended.
func TestScanSequential(t *testing.T) {
	t0 := time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)
	lk, err := lake.Open(filepath.Join(t.TempDir(), "lake"), lake.Options{FlushRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()
	const segs = 16
	for i := 0; i < segs*256; i++ {
		if err := lk.Append(dataset.Observation{
			TorrentID: i % 50,
			IP:        fmt.Sprintf("10.0.%d.%d", i/250, i%250),
			At:        t0.Add(time.Duration(i) * time.Second),
			Seeder:    i%7 == 0,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lk.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := lk.Stats(); st.Segments != segs {
		t.Fatalf("segments = %d, want %d", st.Segments, segs)
	}
	var inFlight atomic.Int32
	batches, rows := 0, 0
	prevLast := t0.UnixNano()
	err = lk.Scan(context.Background(), lake.Predicate{}, func(b *lake.Batch) error {
		defer inFlight.Add(-1)
		if n := inFlight.Add(1); n != 1 {
			t.Errorf("batch %d entered with %d callbacks in flight", batches, n)
		}
		// Hold the batch long enough that an overlapping call would land.
		time.Sleep(time.Millisecond)
		if first := b.UnixNano(0); first < prevLast {
			t.Errorf("batch %d starts at %d, before the previous batch's last row %d", batches, first, prevLast)
		}
		prevLast = b.UnixNano(b.Len() - 1)
		batches++
		rows += b.Len()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if batches != segs || rows != segs*256 {
		t.Fatalf("scan delivered %d batches, %d rows; want %d, %d", batches, rows, segs, segs*256)
	}
}

// TestLakeBytesPerObservation is the byte budget for the whole lake
// directory, not one column file: a campaign dataset is imported and
// compacted, every file is attributed to a kind, and the directory must
// cost at most lakeBytesPerObs. A file of a kind this test does not
// know fails it, so a second copy of anything cannot come back unseen.
func TestLakeBytesPerObservation(t *testing.T) {
	// The fixture measures 8.90 B/obs: segments 8.35, journal 0.55 (the
	// journal carries the torrent and user records).
	const lakeBytesPerObs = 9.5
	ds, _ := campaignDataset(t)
	dir := filepath.Join(t.TempDir(), "lake")
	lk, err := lake.Open(dir, lake.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := lk.ImportDataset(ds); err != nil {
		t.Fatal(err)
	}
	if err := lk.Compact(); err != nil {
		t.Fatal(err)
	}
	obs := lk.Stats().Observations
	if err := lk.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	bytesBy := map[string]int64{}
	var total int64
	for _, e := range entries {
		name, kind := e.Name(), ""
		switch {
		case name == "JOURNAL":
			kind = "journal"
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".obs"):
			kind = "segments"
		default:
			t.Fatalf("lake directory holds %s, a file kind this budget does not know", name)
		}
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		bytesBy[kind] += info.Size()
		total += info.Size()
	}
	perObs := func(n int64) float64 { return float64(n) / float64(obs) }
	t.Logf("%d observations: %.2f B/obs (segments %.2f, journal %.2f)",
		obs, perObs(total), perObs(bytesBy["segments"]), perObs(bytesBy["journal"]))
	if perObs(total) > lakeBytesPerObs {
		t.Fatalf("lake costs %.2f B/obs (%v over %d observations), want <= %.1f", perObs(total), bytesBy, obs, lakeBytesPerObs)
	}
}

package lake_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"btpub/internal/dataset"
	"btpub/internal/lake"
	"btpub/internal/lake/journal"
)

// buildSmallLake writes a lake with several segments and returns its dir
// plus the total committed observation count.
func buildSmallLake(t *testing.T, flushRows int) (string, int) {
	t.Helper()
	t0 := time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)
	dir := filepath.Join(t.TempDir(), "lake")
	lk, err := lake.Open(dir, lake.Options{FlushRows: flushRows})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	var recs []*dataset.TorrentRecord
	for i := 0; i < 10; i++ {
		recs = append(recs, &dataset.TorrentRecord{
			TorrentID: i, InfoHash: fmt.Sprintf("%040d", i), Published: t0,
		})
	}
	if err := lk.AddTorrents(recs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := lk.Append(dataset.Observation{
			TorrentID: i % 10, IP: fmt.Sprintf("10.0.0.%d", i%200),
			At: t0.Add(time.Duration(i) * time.Minute),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lk.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, n
}

func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seg-") {
			segs = append(segs, e.Name())
		}
	}
	return segs
}

// TestTruncatedSegmentRecovery: a segment cut short by a crash fails Open
// loudly by default and is dropped (with the loss accounted) under
// Options.Salvage.
func TestTruncatedSegmentRecovery(t *testing.T) {
	dir, total := buildSmallLake(t, 256)
	segs := segmentFiles(t, dir)
	if len(segs) < 3 {
		t.Fatalf("want several segments, got %v", segs)
	}
	victim := filepath.Join(dir, segs[1])
	st, err := os.Stat(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(victim, st.Size()-37); err != nil {
		t.Fatal(err)
	}

	if _, err := lake.Open(dir, lake.Options{}); err == nil {
		t.Fatal("Open accepted a truncated segment")
	} else {
		var ce *lake.CorruptSegmentError
		if !errors.As(err, &ce) || ce.File != segs[1] {
			t.Fatalf("error = %v, want CorruptSegmentError for %s", err, segs[1])
		}
	}

	lk, err := lake.Open(dir, lake.Options{Salvage: true})
	if err != nil {
		t.Fatalf("salvage open: %v", err)
	}
	defer lk.Close()
	if errs := lk.Verify(context.Background()); len(errs) != 0 {
		t.Fatalf("salvaged lake fails Verify: %v", errs)
	}
	stats := lk.Stats()
	if stats.Observations >= int64(total) || stats.Observations <= 0 {
		t.Fatalf("salvaged observations = %d, want 0 < n < %d", stats.Observations, total)
	}
	var got atomic.Int64 // Scan calls back from several goroutines
	if err := lk.Scan(context.Background(), lake.Predicate{}, func(b *lake.Batch) error {
		got.Add(int64(b.Len()))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got.Load() != stats.Observations {
		t.Fatalf("scan saw %d rows, stats say %d", got.Load(), stats.Observations)
	}
}

// TestCorruptSegmentCRC: a bit flip that preserves the file size passes
// Open's cheap size check but fails the scan's CRC with a clear error,
// and Verify pinpoints the file.
func TestCorruptSegmentCRC(t *testing.T) {
	dir, _ := buildSmallLake(t, 256)
	segs := segmentFiles(t, dir)
	victim := filepath.Join(dir, segs[0])
	buf, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x40
	if err := os.WriteFile(victim, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	lk, err := lake.Open(dir, lake.Options{})
	if err != nil {
		t.Fatalf("size-preserving corruption should pass Open: %v", err)
	}
	defer lk.Close()
	err = lk.Scan(context.Background(), lake.Predicate{}, func(b *lake.Batch) error { return nil })
	var ce *lake.CorruptSegmentError
	if !errors.As(err, &ce) {
		t.Fatalf("scan error = %v, want CorruptSegmentError", err)
	}
	errs := lk.Verify(context.Background())
	if len(errs) != 1 || !errors.As(errs[0], &ce) || ce.File != segs[0] {
		t.Fatalf("Verify = %v, want one CorruptSegmentError for %s", errs, segs[0])
	}
}

// TestManifestCrashSimulation: a crash that left a journal-repair tmp
// file and an orphaned segment (flushed but never committed) must
// reopen to exactly the last committed state, with the orphans removed.
func TestManifestCrashSimulation(t *testing.T) {
	dir, total := buildSmallLake(t, 256)
	// Simulate the torn commit.
	if err := os.WriteFile(filepath.Join(dir, "JOURNAL.tmp"), []byte("BTLKJR"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-009999.obs"), []byte("half a segment"), 0o644); err != nil {
		t.Fatal(err)
	}

	lk, err := lake.Open(dir, lake.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()
	st := lk.Stats()
	if st.Observations != int64(total) || st.Torrents != 10 {
		t.Fatalf("recovered stats = %+v, want %d observations / 10 torrents", st, total)
	}
	for _, f := range []string{"JOURNAL.tmp", "seg-009999.obs"} {
		if _, err := os.Stat(filepath.Join(dir, f)); !os.IsNotExist(err) {
			t.Errorf("orphan %s survived recovery", f)
		}
	}
	if errs := lk.Verify(context.Background()); len(errs) != 0 {
		t.Fatalf("recovered lake fails Verify: %v", errs)
	}
}

// TestPreJournalLakeRefused: a directory whose source of truth is a
// pre-journal MANIFEST must be refused, not read as an empty lake whose
// orphan sweep then deletes the segments.
func TestPreJournalLakeRefused(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "seg-000001.obs")
	for _, f := range []string{filepath.Join(dir, "MANIFEST"), seg} {
		if err := os.WriteFile(f, []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if lk, err := lake.Open(dir, lake.Options{}); err == nil {
		lk.Close()
		t.Fatal("opened a pre-journal lake as if it were empty")
	}
	if _, err := os.Stat(seg); err != nil {
		t.Fatalf("refused open still touched the segment: %v", err)
	}
}

// TestOldFormatLakeRefused: a lake written by an older build is refused
// at its first journal record with an error naming both formats — not
// salvaged, not migrated, and not one of its files touched. Format 2
// kept postings in idx-*.ipx side files; format 3 kept torrent and user
// records in meta-*.jsonl files beside the journal.
func TestOldFormatLakeRefused(t *testing.T) {
	cases := []struct {
		format  int
		payload string
		side    string // the format's extra file kind
	}{
		{2, `{"format":2,"next_seq":1,"next_tid":1,"rows":1,"torrents":0,"users":0,` +
			`"add_segments":[{"file":"seg-000000.obs","bytes":2,"index":"idx-000000.ipx","index_bytes":2,` +
			`"rows":1,"min_at_ns":1,"max_at_ns":1,"min_tid":0,"max_tid":0}]}`, "idx-000000.ipx"},
		{3, `{"format":3,"next_seq":2,"next_tid":1,"rows":1,"torrents":1,"users":0,` +
			`"add_segments":[{"file":"seg-000000.obs","bytes":2,"rows":1,"min_at_ns":1,"max_at_ns":1,"min_tid":0,"max_tid":0}],` +
			`"add_meta":["meta-000001.jsonl"]}`, "meta-000001.jsonl"},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("format-%d", tc.format), func(t *testing.T) {
			dir := t.TempDir()
			files := map[string][]byte{
				journal.Name:     journal.Encode([]journal.Record{{Version: 1, Payload: []byte(tc.payload)}}),
				"seg-000000.obs": []byte("{}"),
				tc.side:          []byte("{}"),
			}
			for name, data := range files {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			for _, opt := range []lake.Options{{}, {Salvage: true}} {
				lk, err := lake.Open(dir, opt)
				if err == nil {
					lk.Close()
					t.Fatalf("Open(%+v) accepted a format-%d lake", opt, tc.format)
				}
				if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("format %d", tc.format)) || !strings.Contains(msg, "format 4") {
					t.Fatalf("refusal does not name the formats: %v", err)
				}
			}
			for name, data := range files {
				if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, data) {
					t.Fatalf("refused open touched %s: %v", name, err)
				}
			}
			if names, _ := os.ReadDir(dir); len(names) != len(files) {
				t.Fatalf("refused open left %d files, want the %d written", len(names), len(files))
			}
		})
	}
}

// TestNextTIDClearsStreamedObservations: a crash between a live stream's
// observation flushes and its final record commit leaves observations for
// torrent IDs no record claims; the next writer must not be handed those
// IDs, or the stale observations would silently re-attribute.
func TestNextTIDClearsStreamedObservations(t *testing.T) {
	t0 := time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)
	dir := filepath.Join(t.TempDir(), "lake")
	lk, err := lake.Open(dir, lake.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Observations for torrents 0..9, never any torrent record — the
	// state a killed live campaign leaves behind.
	for i := 0; i < 10; i++ {
		if err := lk.Append(dataset.Observation{TorrentID: i, IP: "10.0.0.1", At: t0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lk.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := lk.NextTorrentID(); got != 10 {
		t.Fatalf("NextTorrentID = %d after streaming, want 10", got)
	}
	lk.Close()

	lk, err = lake.Open(dir, lake.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()
	if got := lk.NextTorrentID(); got != 10 {
		t.Fatalf("NextTorrentID = %d after reopen, want 10", got)
	}
}

// TestForeignFilesUntouched: recovery cleanup must never delete files the
// lake does not own.
func TestForeignFilesUntouched(t *testing.T) {
	dir, _ := buildSmallLake(t, 256)
	foreign := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(foreign, []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}
	lk, err := lake.Open(dir, lake.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lk.Close()
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("foreign file deleted: %v", err)
	}
}

// TestConcurrentReadersDuringCompaction hammers a lake with a live
// writer, auto-compaction and several concurrent readers — the race
// detector (CI runs -race) proves scans never observe a segment being
// deleted or a manifest mid-splice.
func TestConcurrentReadersDuringCompaction(t *testing.T) {
	t0 := time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)
	dir := filepath.Join(t.TempDir(), "lake")
	lk, err := lake.Open(dir, lake.Options{
		FlushRows: 200,
		Compact:   lake.CompactOptions{Auto: true, MinSegments: 3, TargetRows: 100000},
	})
	if err != nil {
		t.Fatal(err)
	}
	var recs []*dataset.TorrentRecord
	for i := 0; i < 20; i++ {
		recs = append(recs, &dataset.TorrentRecord{TorrentID: i, InfoHash: fmt.Sprintf("%040d", i), Published: t0})
	}
	if err := lk.AddTorrents(recs); err != nil {
		t.Fatal(err)
	}

	const writes = 20_000
	var written atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			// Count the row before it can possibly commit, so written is
			// always an upper bound on what a scan may observe.
			written.Add(1)
			err := lk.Append(dataset.Observation{
				TorrentID: i % 20, IP: fmt.Sprintf("10.0.%d.%d", i%4, i%250),
				At: t0.Add(time.Duration(i) * time.Second), Seeder: i%16 == 0,
			})
			if err != nil {
				t.Error(err)
				return
			}
		}
		if err := lk.Flush(); err != nil {
			t.Error(err)
		}
	}()

	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Committed rows only grow; a scan must never see fewer
				// rows than were committed before it started, nor more
				// than were written when it finishes.
				floor := lk.Stats().Observations
				seen := int64(0)
				var mu sync.Mutex
				err := lk.Scan(context.Background(), lake.Predicate{}, func(b *lake.Batch) error {
					mu.Lock()
					seen += int64(b.Len())
					mu.Unlock()
					return nil
				})
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				ceil := written.Load()
				if seen < floor || seen > ceil {
					t.Errorf("reader %d: scan saw %d rows outside [%d, %d]", r, seen, floor, ceil)
					return
				}
				if _, _, err := lk.Materialize(context.Background(), lake.Predicate{TorrentIDs: []int{0, 1}}); err != nil {
					t.Errorf("reader %d materialize: %v", r, err)
					return
				}
			}
		}(r)
	}

	// Let the writer finish, then stop the readers.
	for written.Load() < writes {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := lk.Close(); err != nil {
		t.Fatal(err)
	}

	// Everything written must be durable and intact after the dust
	// settles, however many compactions ran.
	lk, err = lake.Open(dir, lake.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()
	if st := lk.Stats(); st.Observations != writes {
		t.Fatalf("final observations = %d, want %d", st.Observations, writes)
	}
	if errs := lk.Verify(context.Background()); len(errs) != 0 {
		t.Fatalf("final Verify: %v", errs)
	}
}

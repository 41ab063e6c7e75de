// White-box format tests: compressed segments actually compress, and the
// journal pins (Predicate.AsOf) replay historical versions
// exactly — including what happens to pinned versions after compaction.
package lake

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"btpub/internal/dataset"
)

func serialize(t *testing.T, ds *dataset.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSegmentCompressionRatio: on probe-style data (periodic timestamps,
// repeated addresses, clustered torrent IDs) a sealed segment must cost
// at most segBytesPerObs bytes per observation, and decode back to the
// same columns.
func TestSegmentCompressionRatio(t *testing.T) {
	t0 := time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)
	var st dataset.ObsStore
	z := emptyZone()
	const rows = 50_000
	// The fixture encodes to 3.53 B/obs; fixed-width columns would take 16.
	const segBytesPerObs = 4
	for i := 0; i < rows; i++ {
		o := dataset.Observation{
			TorrentID: i % 40,
			IP:        fmt.Sprintf("10.0.%d.%d", i%4, i%200),
			At:        t0.Add(time.Duration(i) * 30 * time.Second),
			Seeder:    i%9 == 0,
		}
		st.Append(o)
		z.add(int32(o.TorrentID), o.At.UnixNano())
	}
	buf := encodeSegment(&st, z)
	if len(buf) > segBytesPerObs*rows {
		t.Fatalf("segment = %d bytes for %d rows (%.2f B/obs), want <= %d B/obs",
			len(buf), rows, float64(len(buf))/rows, segBytesPerObs)
	}
	d, err := decodeSegment("seg", buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.zone != z {
		t.Fatalf("zone changed: %+v != %+v", d.zone, z)
	}
	if d.rows() != rows {
		t.Fatalf("%d rows", d.rows())
	}
	for i := 0; i < rows; i += 997 {
		if int(d.tids[i]) != i%40 || d.ips[d.ipIdx[i]] != st.IPString(i) ||
			d.atNs[i] != st.UnixNano(i) || d.seeder(int32(i)) != st.Seeder(i) {
			t.Fatalf("row %d decoded wrong", i)
		}
	}
}

// fillLake appends n rows starting at row offset base and flushes.
func fillLake(t *testing.T, lk *Lake, base, n int) {
	t.Helper()
	t0 := time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)
	for i := base; i < base+n; i++ {
		if err := lk.Append(dataset.Observation{
			TorrentID: i % 5, IP: fmt.Sprintf("10.9.%d.%d", (i>>8)&255, i&255),
			At: t0.Add(time.Duration(i) * time.Second), Seeder: i%3 == 0,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lk.Flush(); err != nil {
		t.Fatal(err)
	}
}

// countRows counts the rows a scan of pred streams.
func countRows(t *testing.T, lk *Lake, pred Predicate) int {
	t.Helper()
	var rows atomic.Int64 // scans call back from several goroutines
	if err := lk.Scan(context.Background(), pred, func(b *Batch) error {
		rows.Add(int64(b.Len()))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return int(rows.Load())
}

// countRowsErr scans and returns the error (countRows fails the test).
func countRowsErr(lk *Lake, pred Predicate) error {
	return lk.Scan(context.Background(), pred, func(b *Batch) error { return nil })
}

// TestTimeTravel: Predicate.AsOf and TorrentRecords pin reads to a
// committed version while ingest continues; as_of head is identical to
// unpinned; unavailable versions fail typed; compaction vacuums pinned
// history unless Retain keeps it.
func TestTimeTravel(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "lake")
	lk, err := Open(dir, Options{FlushRows: 128, CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()
	fillLake(t, lk, 0, 500)
	pin := lk.Version()
	pinned, _, err := lk.Materialize(ctx, Predicate{AsOf: pin})
	if err != nil {
		t.Fatal(err)
	}
	pinnedBytes := serialize(t, pinned)

	fillLake(t, lk, 500, 300)
	if lk.Version() <= pin {
		t.Fatalf("version did not advance: %d", lk.Version())
	}

	// The pin replays exactly the 500-row state.
	if rows := countRows(t, lk, Predicate{AsOf: pin}); rows != 500 {
		t.Fatalf("as_of scan saw %d rows, want 500", rows)
	}
	if rows := countRows(t, lk, Predicate{}); rows != 800 {
		t.Fatalf("head scan saw %d rows, want 800", rows)
	}
	mat, _, err := lk.Materialize(ctx, Predicate{AsOf: pin})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialize(t, mat), pinnedBytes) {
		t.Fatal("pinned materialize drifted after more ingest")
	}

	// as_of the current head is byte-identical to an unpinned read.
	head, _, err := lk.Materialize(ctx, Predicate{})
	if err != nil {
		t.Fatal(err)
	}
	headPinned, _, err := lk.Materialize(ctx, Predicate{AsOf: lk.Version()})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialize(t, head), serialize(t, headPinned)) {
		t.Fatal("as_of head differs from unpinned")
	}

	// Versions the journal cannot serve fail with the typed error.
	var vu *VersionUnavailableError
	if err := countRowsErr(lk, Predicate{AsOf: lk.Version() + 10}); !errors.As(err, &vu) {
		t.Fatalf("future as_of scan: %v", err)
	}
	if _, _, err := lk.TorrentRecords(lk.Version() + 10); !errors.As(err, &vu) {
		t.Fatalf("future as_of records: %v", err)
	}

	// Compaction without Retain vacuums the segments old versions need:
	// the pin fails typed, it never silently returns wrong data.
	if err := lk.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := countRowsErr(lk, Predicate{AsOf: pin}); !errors.As(err, &vu) {
		t.Fatalf("vacuumed as_of scan: %v", err)
	}
	if _, _, err := lk.TorrentRecords(pin); !errors.As(err, &vu) {
		t.Fatalf("vacuumed as_of records: %v", err)
	}

	// Checkpoints were crossed (CheckpointEvery: 3); the journal still
	// replays, and stats expose the checkpoint.
	st := lk.Stats()
	if st.CheckpointVersion == 0 || st.Commits == 0 || st.TotalBytes == 0 {
		t.Fatalf("journal stats not exposed: %+v", st)
	}
	if errs := lk.Verify(ctx); len(errs) != 0 {
		t.Fatalf("verify after compaction: %v", errs)
	}
}

// TestTimeTravelRetain: with Retain set, compaction keeps retired
// segments on disk, so pinned versions stay scannable afterwards, also
// from a reopened handle.
func TestTimeTravelRetain(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "lake")
	lk, err := Open(dir, Options{FlushRows: 128, Retain: true})
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()
	fillLake(t, lk, 0, 500)
	pin := lk.Version()
	fillLake(t, lk, 500, 300)
	if err := lk.Compact(); err != nil {
		t.Fatal(err)
	}
	if rows := countRows(t, lk, Predicate{AsOf: pin}); rows != 500 {
		t.Fatalf("retained as_of scan saw %d rows, want 500", rows)
	}
	if rows := countRows(t, lk, Predicate{}); rows != 800 {
		t.Fatalf("head scan saw %d rows, want 800", rows)
	}

	// Retained files survive a reopen's orphan cleanup.
	if err := lk.Close(); err != nil {
		t.Fatal(err)
	}
	lk2, err := Open(dir, Options{Retain: true})
	if err != nil {
		t.Fatal(err)
	}
	defer lk2.Close()
	if rows := countRows(t, lk2, Predicate{AsOf: pin}); rows != 500 {
		t.Fatalf("reopened as_of scan saw %d rows, want 500", rows)
	}
}

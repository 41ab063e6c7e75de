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
	"reflect"
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
	lk, err := Open(dir, Options{FlushRows: 128})
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

	// The journal holds one record per version, and stats expose it.
	st := lk.Stats()
	if st.Commits != int64(st.Version) || st.TotalBytes == 0 {
		t.Fatalf("journal stats: %d commits for head v%d, %d bytes", st.Commits, st.Version, st.TotalBytes)
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

// TestEveryVersionReplays: the journal is the history. A workload of
// flushes, record commits and compactions records the live state right
// after each commit; then, for every version, the fold a pin resolves —
// on the writing handle and again after a reopen — is exactly that
// state, each one-version diff names exactly the files the commit added
// and retired, and the journal holds one record per version.
func TestEveryVersionReplays(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "lake")
	lk, err := Open(dir, Options{FlushRows: 1 << 20, Retain: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { lk.Close() }()
	t0 := time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)
	states := []*manifest{{}} // states[v] is the live state right after version v
	commit := func(op func() error) {
		t.Helper()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		m := liveManifest(lk)
		if m.Version != uint64(len(states)) {
			t.Fatalf("commit produced version %d, want %d", m.Version, len(states))
		}
		states = append(states, m)
	}
	for round := 0; round < 6; round++ {
		lk.ExtendWindow("replay", t0, t0.Add(time.Duration(round+1)*time.Hour))
		commit(func() error { fillLake(t, lk, round*100, 100); return nil })
		if round%2 == 0 {
			commit(func() error {
				if err := lk.AddTorrents([]*dataset.TorrentRecord{{TorrentID: round, Title: fmt.Sprint(round)}}); err != nil {
					return err
				}
				return lk.Flush()
			})
		}
		if round == 2 || round == 5 {
			commit(lk.Compact)
		}
	}
	head := uint64(len(states) - 1)

	files := func(m *manifest) map[string]bool {
		out := map[string]bool{}
		for _, s := range m.Segments {
			out[s.File] = true
		}
		return out
	}
	minus := func(a, b *manifest) map[string]bool {
		out := files(a)
		for f := range files(b) {
			delete(out, f)
		}
		return out
	}
	check := func(lk *Lake, when string) {
		t.Helper()
		if st := lk.Stats(); st.Version != head || st.Commits != int64(head) {
			t.Fatalf("%s: head v%d with %d journal records, want v%d with %d", when, st.Version, st.Commits, head, head)
		}
		for v := uint64(1); v <= head; v++ {
			got, err := lk.pinned(v)
			if err != nil {
				t.Fatalf("%s: pin v%d: %v", when, v, err)
			}
			if !reflect.DeepEqual(got, states[v]) {
				t.Fatalf("%s: v%d folds to\n%+v\nwant the state committed then\n%+v", when, v, got, states[v])
			}
			if v == head {
				continue
			}
			d, err := lk.DiffVersions(v, v+1)
			if err != nil {
				t.Fatalf("%s: diff v%d..v%d: %v", when, v, v+1, err)
			}
			added := map[string]bool{}
			for _, f := range d.AddedSegments {
				added[f] = true
			}
			retired := map[string]bool{}
			for _, f := range d.RetiredSegments {
				retired[f] = true
			}
			if !reflect.DeepEqual(added, minus(states[v+1], states[v])) || !reflect.DeepEqual(retired, minus(states[v], states[v+1])) {
				t.Fatalf("%s: diff v%d..v%d = %+v", when, v, v+1, d)
			}
		}
		var vu *VersionUnavailableError
		if _, err := lk.DiffVersions(0, head); !errors.As(err, &vu) {
			t.Fatalf("%s: diff from v0: %v", when, err)
		}
		if _, err := lk.pinned(head + 1); !errors.As(err, &vu) {
			t.Fatalf("%s: pin past head: %v", when, err)
		}
	}
	check(lk, "live")
	if err := lk.Close(); err != nil {
		t.Fatal(err)
	}
	if lk, err = Open(dir, Options{Retain: true}); err != nil {
		t.Fatal(err)
	}
	check(lk, "reopened")
}

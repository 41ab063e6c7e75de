package lake_test

import (
	"context"
	"fmt"
	"net/netip"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"btpub/internal/dataset"
	"btpub/internal/lake"
)

var recT0 = time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)

// recBatch returns n torrent records numbered from id and one user record
// per call, all stamped in UTC so they survive the codec's round trip
// unchanged.
func recBatch(id, n int) ([]*dataset.TorrentRecord, []dataset.UserRecord) {
	var ts []*dataset.TorrentRecord
	for i := id; i < id+n; i++ {
		ts = append(ts, &dataset.TorrentRecord{
			TorrentID: i, InfoHash: fmt.Sprintf("%040x", i), Title: fmt.Sprintf("Title.%d", i),
			Category: "Video > Movies", Username: fmt.Sprintf("user%d", i%3),
			PublisherIP: fmt.Sprintf("11.0.0.%d", i%7+1), Published: recT0.Add(time.Duration(i) * time.Minute),
			BundledFiles: []string{fmt.Sprintf("extra-%d.txt", i)},
		})
	}
	us := []dataset.UserRecord{{Username: fmt.Sprintf("user%d", id), Exists: true, MemberSince: recT0, TotalUploads: n}}
	return ts, us
}

// commitRecords buffers one batch of records plus one observation per
// record and flushes them as one version.
func commitRecords(lk *lake.Lake, id, n int) error {
	ts, us := recBatch(id, n)
	if err := lk.AddTorrents(ts); err != nil {
		return err
	}
	if err := lk.AddUsers(us); err != nil {
		return err
	}
	for _, r := range ts {
		if err := lk.Append(dataset.Observation{TorrentID: r.TorrentID, IP: "20.0.0.1", At: r.Published}); err != nil {
			return err
		}
	}
	return lk.Flush()
}

// mustCommitRecords is commitRecords on the test goroutine.
func mustCommitRecords(t *testing.T, lk *lake.Lake, id, n int) {
	t.Helper()
	if err := commitRecords(lk, id, n); err != nil {
		t.Fatal(err)
	}
}

// recordsView is what one version's readers see of the records.
type recordsView struct {
	torrents  []*dataset.TorrentRecord
	users     []dataset.UserRecord
	diffT     []*dataset.TorrentRecord
	diffU     []dataset.UserRecord
	diffIncr  bool
	materialz []byte
}

// viewAt reads every record path at version v.
func viewAt(t *testing.T, lk *lake.Lake, v uint64) recordsView {
	t.Helper()
	var out recordsView
	var err error
	if out.torrents, out.users, err = lk.TorrentRecords(v); err != nil {
		t.Fatalf("v%d records: %v", v, err)
	}
	dd, err := lk.ReadDiff(context.Background(), v)
	if err != nil {
		t.Fatalf("v%d diff: %v", v, err)
	}
	out.diffT, out.diffU, out.diffIncr = dd.Torrents, dd.Users, dd.Diff.Incremental()
	ds, _, err := lk.Materialize(context.Background(), lake.Predicate{AsOf: v})
	if err != nil {
		t.Fatalf("v%d materialize: %v", v, err)
	}
	out.materialz = serializeDataset(t, ds)
	return out
}

// TestRecordsSurviveReopen: the records a handle serves from its flushes
// are the records a reopened handle decodes from the journal, at every
// committed version and on every read path — across plain flushes, an
// import and a compaction.
func TestRecordsSurviveReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "lake")
	lk, err := lake.Open(dir, lake.Options{FlushRows: 64, Retain: true})
	if err != nil {
		t.Fatal(err)
	}
	// wantT[v] is the torrent count committed at version v.
	wantT := []int{0}
	step := func() {
		t.Helper()
		for uint64(len(wantT)) <= lk.Version() {
			wantT = append(wantT, lk.Stats().Torrents)
		}
	}
	id := 0
	for round := 0; round < 4; round++ {
		mustCommitRecords(t, lk, id, 3+round)
		id += 3 + round
		step()
		// An observation-only version between record commits.
		for i := 0; i < 100; i++ {
			if err := lk.Append(dataset.Observation{TorrentID: i % id, IP: fmt.Sprintf("10.0.0.%d", i), At: recT0.Add(time.Duration(i) * time.Second)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := lk.Flush(); err != nil {
			t.Fatal(err)
		}
		step()
	}
	ts, us := recBatch(0, 5)
	imp := &dataset.Dataset{Name: "import", Start: recT0, End: recT0.Add(time.Hour), Torrents: ts, Users: us}
	for _, r := range ts {
		imp.AddObservation(dataset.Observation{TorrentID: r.TorrentID, IP: "20.0.0.2", At: r.Published})
	}
	if err := lk.ImportDataset(imp); err != nil {
		t.Fatal(err)
	}
	step()
	if err := lk.Compact(); err != nil {
		t.Fatal(err)
	}
	step()
	mustCommitRecords(t, lk, 1000, 2)
	step()
	head := lk.Version()
	if wantT[head] != id+5+2 {
		t.Fatalf("head commits %d torrents, want %d", wantT[head], id+5+2)
	}

	before := make([]recordsView, head+1)
	for v := uint64(1); v <= head; v++ {
		before[v] = viewAt(t, lk, v)
		if len(before[v].torrents) != wantT[v] {
			t.Fatalf("v%d serves %d torrents, want %d", v, len(before[v].torrents), wantT[v])
		}
		if n := len(before[v].diffT); before[v].diffIncr && n != wantT[head]-wantT[v] {
			t.Fatalf("diff from v%d carries %d torrents, want %d", v, n, wantT[head]-wantT[v])
		}
	}
	if err := lk.Close(); err != nil {
		t.Fatal(err)
	}
	lk, err = lake.Open(dir, lake.Options{Retain: true})
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()
	if errs := lk.Verify(context.Background()); len(errs) != 0 {
		t.Fatalf("verify after reopen: %v", errs)
	}
	for v := uint64(1); v <= head; v++ {
		if after := viewAt(t, lk, v); !reflect.DeepEqual(after, before[v]) {
			t.Fatalf("v%d reads differently after reopen:\nbefore %+v\nafter  %+v", v, before[v], after)
		}
	}
}

// TestRecordSlicesStableUnderFlush: record slices handed to readers keep
// their length and contents while a writer keeps flushing records, and a
// reader appending to its slice never writes into the lake's lists. Run
// under -race, an unsafe share shows as a data race as well.
func TestRecordSlicesStableUnderFlush(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "lake")
	lk, err := lake.Open(dir, lake.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()
	mustCommitRecords(t, lk, 0, 2)

	const flushes = 60
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 1; i <= flushes; i++ {
			if err := commitRecords(lk, 2*i, 2); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// held is one slice a reader took and a copy of what it held then.
	type held struct {
		ts   []*dataset.TorrentRecord
		us   []dataset.UserRecord
		recs []dataset.TorrentRecord
		uc   []dataset.UserRecord
	}
	hold := func(ts []*dataset.TorrentRecord, us []dataset.UserRecord) held {
		h := held{ts: ts, us: us, uc: append([]dataset.UserRecord(nil), us...)}
		for _, r := range ts {
			h.recs = append(h.recs, *r)
		}
		return h
	}
	check := func(h held, what string) {
		if len(h.ts) != len(h.recs) || len(h.us) != len(h.uc) {
			t.Errorf("%s: lengths %d/%d became %d/%d", what, len(h.recs), len(h.uc), len(h.ts), len(h.us))
			return
		}
		for i, r := range h.ts {
			if !reflect.DeepEqual(*r, h.recs[i]) {
				t.Errorf("%s: torrent %d changed from %+v to %+v", what, i, h.recs[i], *r)
				return
			}
		}
		if !slices.Equal(h.us, h.uc) {
			t.Errorf("%s: user records changed", what)
		}
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var kept []held
			for {
				select {
				case <-done:
					for i, h := range kept {
						check(h, fmt.Sprintf("reader %d slice %d", r, i))
					}
					return
				default:
				}
				from := lk.Version()
				ts, us, err := lk.TorrentRecords(0)
				if err != nil {
					t.Error(err)
					return
				}
				kept = append(kept, hold(ts, us))
				dd, err := lk.ReadDiff(context.Background(), from)
				if err != nil {
					t.Error(err)
					return
				}
				kept = append(kept, hold(dd.Torrents, dd.Users))
				// A reader's append lands in memory of its own, never in
				// the lake's spare capacity.
				if mine := append(ts, &dataset.TorrentRecord{Title: "reader"}); mine[len(ts)].Title != "reader" {
					t.Error("append lost the reader's record")
				}
				if mine := append(us, dataset.UserRecord{Username: "reader"}); mine[len(us)].Username != "reader" {
					t.Error("append lost the reader's user")
				}
				for _, h := range kept[len(kept)-2:] {
					check(h, fmt.Sprintf("reader %d fresh slice", r))
				}
			}
		}(r)
	}
	wg.Wait()

	ts, us, err := lk.TorrentRecords(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2*(flushes+1) || len(us) != flushes+1 {
		t.Fatalf("head serves %d torrents and %d users, want %d and %d", len(ts), len(us), 2*(flushes+1), flushes+1)
	}
	for i, r := range ts {
		if r.Title != fmt.Sprintf("Title.%d", i) {
			t.Fatalf("torrent %d is %q: a reader's append reached the lake", i, r.Title)
		}
	}
}

// TestOneRecordPerTorrentID: a torrent ID has one record. AddTorrents
// and ImportDataset refuse a record whose ID is committed, pending or
// repeated in the same call, name the ID, and keep nothing from the
// refused call — before and after a reopen. (Merge would give the rows
// of a shared ID to the record that sorts later, the snapshot fold to
// the one committed later.)
func TestOneRecordPerTorrentID(t *testing.T) {
	dir := t.TempDir()
	lk, err := lake.Open(dir, lake.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { lk.Close() }()
	mustCommitRecords(t, lk, 0, 3) // IDs 0-2 committed
	rec := func(id int) *dataset.TorrentRecord {
		ts, _ := recBatch(id, 1)
		return ts[0]
	}
	refuse := func(what string, id int, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("torrent ID %d ", id)) {
			t.Fatalf("%s: err %v, want a refusal naming torrent ID %d", what, err, id)
		}
	}
	if err := lk.AddTorrents([]*dataset.TorrentRecord{rec(3), rec(4)}); err != nil { // 3, 4 pending
		t.Fatal(err)
	}
	refuse("committed ID", 2, lk.AddTorrents([]*dataset.TorrentRecord{rec(7), rec(2)}))
	refuse("pending ID", 4, lk.AddTorrents([]*dataset.TorrentRecord{rec(8), rec(4)}))
	refuse("repeated ID", 9, lk.AddTorrents([]*dataset.TorrentRecord{rec(9), rec(10), rec(9)}))
	next := lk.NextTorrentID()
	dup := &dataset.Dataset{Name: "dup", Start: recT0, End: recT0.Add(time.Hour),
		Torrents: []*dataset.TorrentRecord{rec(0), rec(1), rec(0)}}
	refuse("import repeating an ID", 0, lk.ImportDataset(dup))
	if lk.NextTorrentID() != next {
		t.Fatalf("refused import moved NextTorrentID %d -> %d", next, lk.NextTorrentID())
	}
	// The refused calls claimed nothing: their other IDs are still free.
	if err := lk.AddTorrents([]*dataset.TorrentRecord{rec(7), rec(8), rec(9), rec(10)}); err != nil {
		t.Fatalf("IDs of refused calls stayed claimed: %v", err)
	}
	if err := lk.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := lk.TorrentRecords(0)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, r := range recs {
		got = append(got, r.TorrentID)
	}
	if want := []int{0, 1, 2, 3, 4, 7, 8, 9, 10}; !slices.Equal(got, want) {
		t.Fatalf("committed records %v, want %v", got, want)
	}

	if err := lk.Close(); err != nil {
		t.Fatal(err)
	}
	if lk, err = lake.Open(dir, lake.Options{}); err != nil {
		t.Fatal(err)
	}
	refuse("ID committed before reopen", 8, lk.AddTorrents([]*dataset.TorrentRecord{rec(8)}))
	if err := lk.ImportDataset(&dataset.Dataset{Name: "dup", Torrents: []*dataset.TorrentRecord{rec(0), rec(1)}}); err != nil {
		t.Fatalf("import of distinct IDs: %v", err)
	}
}

// TestTorrentIDReservedOnAccept: a torrent ID is reserved the moment the
// lake accepts a record or a row naming it, flushed or not, so an
// import's base clears pending records and buffered rows. Case one: the
// import is not refused over a pending record's ID. Case two: the import
// does not take the ID of a buffered row, which would put that row
// under the imported record. Case three: a row at the top of the ID
// space reserves it too, so an import finds no room.
func TestTorrentIDReservedOnAccept(t *testing.T) {
	next := func(lk *lake.Lake, step string, want int) {
		t.Helper()
		if got := lk.NextTorrentID(); got != want {
			t.Fatalf("%s: NextTorrentID = %d, want %d", step, got, want)
		}
	}
	open := func() *lake.Lake {
		t.Helper()
		lk, err := lake.Open(t.TempDir(), lake.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { lk.Close() })
		return lk
	}

	t.Run("pending records", func(t *testing.T) {
		lk := open()
		ts, _ := recBatch(0, 2)
		if err := lk.AddTorrents(ts); err != nil {
			t.Fatal(err)
		}
		next(lk, "after AddTorrents 0-1", 2)
		imp, _ := recBatch(0, 1)
		if err := lk.ImportDataset(&dataset.Dataset{Name: "imp", Torrents: imp}); err != nil {
			t.Fatalf("import past pending records 0-1: %v", err)
		}
		next(lk, "after the import", 3)
		recs, _, err := lk.TorrentRecords(0)
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		for _, r := range recs {
			got = append(got, r.TorrentID)
		}
		if want := []int{0, 1, 2}; !slices.Equal(got, want) {
			t.Fatalf("committed records %v, want %v", got, want)
		}
	})

	t.Run("buffered row", func(t *testing.T) {
		lk := open()
		const streamed = "10.9.9.9"
		if err := lk.Append(dataset.Observation{TorrentID: 5, IP: streamed, At: recT0}); err != nil {
			t.Fatal(err)
		}
		next(lk, "after Append of ID 5", 6)
		imp, _ := recBatch(0, 6)
		ds := &dataset.Dataset{Name: "imp", Start: recT0, End: recT0.Add(time.Hour)}
		for i, r := range imp {
			ds.AddTorrent(r)
			ds.AddObservation(dataset.Observation{TorrentID: i, IP: fmt.Sprintf("30.0.0.%d", i), At: r.Published})
		}
		if err := lk.ImportDataset(ds); err != nil {
			t.Fatal(err)
		}
		next(lk, "after the import", 12)
		// The stream's record arrives last, as a live campaign commits it.
		own, _ := recBatch(100, 1)
		own[0].TorrentID = 5
		if err := lk.AddTorrents(own); err != nil {
			t.Fatalf("the streamed row's own record: %v", err)
		}
		next(lk, "after the streamed record", 12)
		if err := lk.Flush(); err != nil {
			t.Fatal(err)
		}
		got, _, err := lk.Materialize(context.Background(), lake.Predicate{})
		if err != nil {
			t.Fatal(err)
		}
		// The streamed row stays with its own record; each imported record
		// keeps its own row only. (Materialize renumbers torrents in
		// canonical order, so rows are matched to records by info hash.)
		want := map[string][]string{own[0].InfoHash: {streamed}}
		for i, r := range imp {
			want[r.InfoHash] = []string{fmt.Sprintf("30.0.0.%d", i)}
		}
		hash := map[int]string{}
		for _, r := range got.Torrents {
			hash[r.TorrentID] = r.InfoHash
		}
		rows := map[string][]string{}
		for i := 0; i < got.Obs.Len(); i++ {
			h := hash[got.Obs.TorrentID(i)]
			rows[h] = append(rows[h], got.Obs.IPString(i))
		}
		if !reflect.DeepEqual(rows, want) {
			t.Fatalf("rows by record %v, want %v", rows, want)
		}
	})
	t.Run("top of the ID space", func(t *testing.T) {
		lk := open()
		const top = 1<<31 - 1
		if err := lk.Append(dataset.Observation{TorrentID: top, IP: "10.0.0.1", At: recT0}); err != nil {
			t.Fatal(err)
		}
		next(lk, "after Append of the top ID", top+1)
		imp, _ := recBatch(0, 1)
		if err := lk.ImportDataset(&dataset.Dataset{Name: "imp", Torrents: imp}); err == nil {
			t.Fatal("import past the top ID accepted")
		}
		next(lk, "after the refused import", top+1)
	})
}

// TestAppendRefusesOutOfRangeTimestamp: a timestamp the unix-nanosecond
// columns cannot hold (the zero time among them) is an error from Append
// and AppendAddr, not a panic or a wrapped instant, and the lake keeps
// nothing from the call: no row, no reserved ID, no commit.
func TestAppendRefusesOutOfRangeTimestamp(t *testing.T) {
	lk, err := lake.Open(t.TempDir(), lake.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()
	for _, at := range []time.Time{{}, time.Date(2262, 1, 1, 0, 0, 0, 0, time.UTC)} {
		if err := lk.Append(dataset.Observation{TorrentID: 1, IP: "10.0.0.1", At: at}); err == nil {
			t.Fatalf("Append at %v accepted", at)
		}
		if err := lk.AppendAddr(2, netip.MustParseAddr("10.0.0.2"), at, false); err == nil {
			t.Fatalf("AppendAddr at %v accepted", at)
		}
	}
	if got := lk.NextTorrentID(); got != 0 {
		t.Fatalf("refused appends reserved IDs: NextTorrentID = %d", got)
	}
	if err := lk.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := lk.Stats(); st.Version != 0 || st.Observations != 0 {
		t.Fatalf("refused appends left version %d, %d observations", st.Version, st.Observations)
	}
}

// Journal record validation and the rewrite-aware diff: hand-built
// journals whose records do not apply to their parent version are
// refused on Open and on Verify, and a compaction's rewrite record is
// folded across by DiffVersions and ReadDiff exactly when its victims
// predate the diff's base.
package lake

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"btpub/internal/dataset"
	"btpub/internal/lake/journal"
	"btpub/internal/vfs"
)

// handSeg is a journal entry for a segment of rows rows spanning the
// given times and torrent IDs.
func handSeg(file string, rows int, minAt, maxAt int64, minTID, maxTID int32) segMeta {
	return segMeta{File: file, Bytes: 100, zone: zone{Rows: rows, MinAtNs: minAt, MaxAtNs: maxAt, MinTID: minTID, MaxTID: maxTID}}
}

// handJournal is a valid two-segment history — v1 and v2 each flush one
// segment — followed by rewrite, a compaction folding both into
// seg-000003.obs. Each violation test breaks one thing about it.
func handJournal() []*commitPayload {
	a := handSeg("seg-000001.obs", 5, 10, 50, 0, 4)
	b := handSeg("seg-000002.obs", 7, 30, 90, 3, 9)
	return []*commitPayload{
		{NextSeq: 2, NextTID: 5, Rows: 5, AddSegments: []segMeta{a}},
		{NextSeq: 3, NextTID: 10, Rows: 12, AddSegments: []segMeta{b}},
		{NextSeq: 4, NextTID: 10, Rows: 12, Rewrite: true,
			RetireSegments: []string{a.File, b.File},
			AddSegments:    []segMeta{handSeg("seg-000003.obs", 12, 10, 90, 0, 9)}},
	}
}

func encodeHand(t *testing.T, pays []*commitPayload) []journal.Record {
	t.Helper()
	recs := make([]journal.Record, len(pays))
	for i, pay := range pays {
		pay.Format = payloadFormat
		data, err := json.Marshal(pay)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = journal.Record{Version: uint64(i + 1), Payload: data}
	}
	return recs
}

// requireJournalRefused holds a hand-built journal to both decoders:
// Open must refuse a lake holding it, and Verify on an open lake whose
// JOURNAL is replaced by it must report it, each naming the version and
// the violation.
func requireJournalRefused(t *testing.T, pays []*commitPayload, want ...string) {
	t.Helper()
	data := journal.Encode(encodeHand(t, pays))
	want = append(want, "journal version")
	check := func(how string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s accepted the journal", how)
		}
		for _, w := range want {
			if !strings.Contains(err.Error(), w) {
				t.Fatalf("%s: %v, want it to name %q", how, err, w)
			}
		}
	}

	dir := filepath.Join(t.TempDir(), "lake")
	fsys := vfs.OS(dir)
	if err := fsys.MkdirAll(); err != nil {
		t.Fatal(err)
	}
	if err := writeHandFile(fsys, journal.Name, data); err != nil {
		t.Fatal(err)
	}
	lk, err := Open(dir, Options{})
	if err == nil {
		lk.Close()
	}
	check("Open", err)

	lk, err = Open(filepath.Join(t.TempDir(), "lake"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()
	if err := writeHandFile(lk.fs, journal.Name, data); err != nil {
		t.Fatal(err)
	}
	errs := lk.Verify(context.Background())
	if len(errs) != 1 {
		t.Fatalf("Verify = %v, want exactly one error", errs)
	}
	check("Verify", errs[0])
}

func writeHandFile(fsys vfs.FS, name string, data []byte) error {
	f, err := fsys.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// TestHandJournalValid: the fixture the violation tests break is itself
// a history decodeHist folds.
func TestHandJournalValid(t *testing.T) {
	_, m, err := decodeHist(encodeHand(t, handJournal()))
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != 3 || len(m.Segments) != 1 || m.Segments[0].File != "seg-000003.obs" {
		t.Fatalf("fixture folds to v%d with segments %+v", m.Version, m.Segments)
	}
}

// TestJournalRefusesRetiringNotLive: a record may only retire segments
// live at its parent version — not one no record ever added, and not
// one an earlier record already retired.
func TestJournalRefusesRetiringNotLive(t *testing.T) {
	t.Run("never-added", func(t *testing.T) {
		pays := handJournal()[:2]
		pays = append(pays, &commitPayload{NextSeq: 3, NextTID: 10, Rows: 12, RetireSegments: []string{"seg-000009.obs"}})
		requireJournalRefused(t, pays, "version 3", "seg-000009.obs", "not live")
	})
	t.Run("already-retired", func(t *testing.T) {
		pays := handJournal()
		pays = append(pays, &commitPayload{NextSeq: 4, NextTID: 10, Rows: 7, RetireSegments: []string{"seg-000001.obs"}})
		requireJournalRefused(t, pays, "version 4", "seg-000001.obs", "not live")
	})
}

// TestJournalRefusesRewriteChangingRows: a rewrite adds exactly the rows
// it retires.
func TestJournalRefusesRewriteChangingRows(t *testing.T) {
	pays := handJournal()
	pays[2].AddSegments[0].Rows = 11
	requireJournalRefused(t, pays, "version 3", "rewrite", "11 row(s) for the 12")
}

// TestJournalRefusesRewriteChangingZone: a rewrite's output spans
// exactly its victims' times and torrent IDs.
func TestJournalRefusesRewriteChangingZone(t *testing.T) {
	pays := handJournal()
	pays[2].AddSegments[0].MaxAtNs = 91
	requireJournalRefused(t, pays, "version 3", "rewrite", "zone")
}

// TestJournalRefusesRecordCountMismatch: a record's absolute torrent
// and user counts are its parent's plus the records it carries — the
// counts every version's record slices are cut by.
func TestJournalRefusesRecordCountMismatch(t *testing.T) {
	t.Run("torrents", func(t *testing.T) {
		pays := handJournal()
		pays[1].AddTorrents = []*dataset.TorrentRecord{{TorrentID: 3}}
		requireJournalRefused(t, pays, "version 2", "adds 1 torrent and 0 user records", "counts 0 and 0")
	})
	t.Run("users", func(t *testing.T) {
		pays := handJournal()
		pays[2].Users = 1
		requireJournalRefused(t, pays, "version 3", "adds 0 torrent and 0 user records", "counts 0 and 1")
	})
}

// recordsLake commits four versions — v1 and v2 add three torrents and a
// user each, v3 rows only, v4 two torrents and a user — and, with
// reopen, returns a handle that decoded them from the journal instead of
// the writing one. Cleanup closes it.
func recordsLake(t *testing.T, reopen bool) *Lake {
	t.Helper()
	t0 := time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)
	dir := filepath.Join(t.TempDir(), "lake")
	lk, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	id := 0
	for _, n := range []int{3, 3, 0, 2} {
		var ts []*dataset.TorrentRecord
		for ; len(ts) < n; id++ {
			ts = append(ts, &dataset.TorrentRecord{TorrentID: id, Title: fmt.Sprintf("Title.%d", id), Published: t0})
		}
		if n > 0 {
			err = lk.AddTorrents(ts)
			if err == nil {
				err = lk.AddUsers([]dataset.UserRecord{{Username: fmt.Sprintf("user%d", lk.Stats().Users), MemberSince: t0}})
			}
		} else {
			err = lk.Append(dataset.Observation{TorrentID: 0, IP: "10.0.0.1", At: t0})
		}
		if err == nil {
			err = lk.Flush()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if reopen {
		if err := lk.Close(); err != nil {
			t.Fatal(err)
		}
		if lk, err = Open(dir, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { lk.Close() })
	return lk
}

// TestVerifyChecksJournalRecords: a served record that no longer matches
// the journal record of the commit that added it is reported by Verify,
// naming that version, whether the handle committed the record itself or
// decoded it from the journal on reopen.
func TestVerifyChecksJournalRecords(t *testing.T) {
	cases := []struct {
		name   string
		tamper func(lk *Lake)
		want   []string
	}{
		{"edited", func(lk *Lake) {
			cp := *lk.torrents[4]
			cp.Title = "Title.X"
			lk.torrents[4] = &cp
		}, []string{"version 2", "torrent record 4 (ID 4)"}},
		{"user-edited", func(lk *Lake) { lk.users[2].TotalUploads++ }, []string{"version 4", `user record 2 ("user2")`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, reopen := range []bool{false, true} {
				t.Run(fmt.Sprintf("reopen=%v", reopen), func(t *testing.T) {
					lk := recordsLake(t, reopen)
					if errs := lk.Verify(context.Background()); len(errs) != 0 {
						t.Fatalf("verify of an intact lake: %v", errs)
					}
					tc.tamper(lk)
					errs := lk.Verify(context.Background())
					if len(errs) != 1 {
						t.Fatalf("verify of a tampered record = %v, want one error", errs)
					}
					for _, w := range tc.want {
						if !strings.Contains(errs[0].Error(), w) {
							t.Fatalf("verify error %q does not name %q", errs[0], w)
						}
					}
				})
			}
		})
	}
}

// TestDiffFoldsNeutralRewrites: the diff crosses a compaction whose
// victims all predate its base — literal file deltas unchanged, only
// the new rows counted and read — and reports a content retirement when
// the compaction consumed a segment added inside the range, or when a
// retirement is not a rewrite at all (salvage).
func TestDiffFoldsNeutralRewrites(t *testing.T) {
	t0 := time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)
	dir := filepath.Join(t.TempDir(), "lake")
	lk, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	flush := func(tid, rows int) {
		t.Helper()
		for i := 0; i < rows; i++ {
			if err := lk.Append(dataset.Observation{TorrentID: tid, IP: "10.0.0.1", At: t0.Add(time.Duration(i) * time.Minute)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := lk.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	compact := func(want uint64) {
		t.Helper()
		if err := lk.Compact(); err != nil {
			t.Fatal(err)
		}
		if v := lk.Version(); v != want {
			t.Fatalf("compaction left the head at v%d, want v%d", v, want)
		}
	}
	diff := func(from, to uint64) *Diff {
		t.Helper()
		d, err := lk.DiffVersions(from, to)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	flush(0, 3) // v1
	flush(1, 4) // v2
	compact(3)  // v3: neutral from v2
	flush(2, 5) // v4
	d := diff(2, 4)
	if !d.Incremental() || d.AddedRows != 5 || len(d.RetiredSegments) != 2 || len(d.AddedSegments) != 2 || len(d.ContentRetired) != 0 {
		t.Fatalf("diff v2..v4 across a neutral rewrite = %+v", d)
	}
	dd, err := lk.ReadDiff(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if dd.Obs.Len() != 5 || dd.Obs.TorrentID(0) != 2 {
		t.Fatalf("ReadDiff from v2 read %d rows, want the 5 new ones", dd.Obs.Len())
	}

	compact(5) // v5: consumes v3's output and v4's fresh segment
	if d := diff(2, 5); d.Incremental() || !slices.Equal(d.ContentRetired, d.RetiredSegments[2:]) {
		t.Fatalf("diff v2..v5 through a rewrite of a fresh segment = %+v", d)
	}
	if d := diff(4, 5); !d.Incremental() || d.AddedRows != 0 {
		t.Fatalf("diff v4..v5 = %+v, want a neutral rewrite", d)
	}
	dd, err = lk.ReadDiff(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if dd.Obs.Len() != 0 {
		t.Fatalf("ReadDiff across a neutral rewrite read %d rows", dd.Obs.Len())
	}

	// Salvage: truncate the only segment and reopen. Its retire record
	// is content, whatever the range.
	seg := liveManifest(lk).Segments[0].File
	if err := lk.Close(); err != nil {
		t.Fatal(err)
	}
	if err := writeHandFile(vfs.OS(dir), seg, []byte("torn")); err != nil {
		t.Fatal(err)
	}
	if lk, err = Open(dir, Options{Salvage: true}); err != nil {
		t.Fatal(err)
	}
	defer lk.Close()
	if d := diff(5, 6); d.Incremental() || !slices.Equal(d.ContentRetired, []string{seg}) {
		t.Fatalf("diff across salvage = %+v", d)
	}
}

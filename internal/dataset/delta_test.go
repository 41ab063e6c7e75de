package dataset

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// laterBatch is a one-record batch that sorts entirely after
// sampleDataset (and after any laterBatch with a smaller hour): the
// record is published at hour h, and its two observations — one from a
// new address, one from an address sampleDataset already interned —
// follow it.
func laterBatch(h float64, hash, newIP string) *Dataset {
	at := func(h float64) time.Time { return t0.Add(time.Duration(h * float64(time.Hour))) }
	b := &Dataset{Name: "pb10-test", Start: t0, End: t0.AddDate(0, 1, 0)}
	b.AddTorrent(&TorrentRecord{TorrentID: 0, InfoHash: strings.Repeat(hash, 20), Published: at(h), Username: "late"})
	b.AddObservation(Observation{TorrentID: 0, IP: newIP, At: at(h + 0.5)})
	b.AddObservation(Observation{TorrentID: 0, IP: "20.1.2.3", At: at(h + 0.5), Seeder: true})
	return b
}

func serialized(t *testing.T, d *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireMerged fails unless got serializes exactly as Merge over the
// inputs.
func requireMerged(t *testing.T, got *Dataset, inputs ...*Dataset) {
	t.Helper()
	want := Merge(inputs[0].Name, inputs...)
	got.Name, got.Start, got.End = want.Name, want.Start, want.End
	if !bytes.Equal(serialized(t, got), serialized(t, want)) {
		t.Fatal("advanced dataset differs from Merge over the combined input")
	}
}

// TestAdvanceTailClaimedOnce: only the first advance from a store grows
// into its spare capacity. A second advance from the same store, with a
// different batch and a different new address, must leave the first
// successor byte-identical and take the copy path itself: fresh columns,
// a private intern table, no extended index.
func TestAdvanceTailClaimedOnce(t *testing.T) {
	base := sampleDataset()
	b1 := laterBatch(10, "e1", "30.0.0.1")
	p1 := advanceBy(t, Merge(base.Name, base), b1)
	p1.Obs.Index()
	if cap(p1.Obs.tids)-p1.Obs.Len() < 2 {
		t.Fatalf("fixture: %d rows with capacity %d leave no tail to grow into", p1.Obs.Len(), cap(p1.Obs.tids))
	}
	bA, bB := laterBatch(20, "e2", "30.0.0.2"), laterBatch(21, "e3", "30.0.0.3")

	first := advanceBy(t, p1, bA)
	if &first.Obs.tids[0] != &p1.Obs.tids[0] {
		t.Fatal("first successor copied the columns instead of growing into the tail")
	}
	if first.Obs.builtIndex() == nil {
		t.Fatal("first successor did not extend the built index")
	}
	before := serialized(t, first)

	second := advanceBy(t, p1, bB)
	if !bytes.Equal(serialized(t, first), before) {
		t.Fatal("second advance from the same store rewrote the first successor")
	}
	if &second.Obs.tids[0] == &p1.Obs.tids[0] {
		t.Fatal("second successor shares the claimed columns")
	}
	if second.Obs.builtIndex() != nil {
		t.Fatal("second successor extended the claimed index spans")
	}
	if _, ok := first.Obs.IPs().Lookup("30.0.0.3"); ok {
		t.Fatal("second successor interned into the first successor's table")
	}
	requireMerged(t, first, base, b1, bA)
	requireMerged(t, second, base, b1, bB)
}

// TestAdvanceConcurrentReader: a published store stays readable — rows,
// addresses, index spans — from another goroutine while it is advanced,
// in place and by copy. Run under -race this checks that every write
// lands past what the reader can see.
func TestAdvanceConcurrentReader(t *testing.T) {
	base := sampleDataset()
	b1 := laterBatch(10, "e1", "30.0.0.1")
	p1 := advanceBy(t, Merge(base.Name, base), b1)
	ix := p1.Obs.Index()
	want := serialized(t, p1)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			var buf bytes.Buffer
			if err := p1.Write(&buf); err != nil || !bytes.Equal(buf.Bytes(), want) {
				t.Error("published store changed under a concurrent advance")
				return
			}
			for tid := range ix.Torrents() {
				for _, oi := range p1.Obs.Index().Span(tid) {
					if p1.Obs.TorrentID(int(oi)) != tid {
						t.Errorf("span %d holds row %d of torrent %d", tid, oi, p1.Obs.TorrentID(int(oi)))
						return
					}
				}
			}
		}
	}()
	cur := p1
	for i := range 50 {
		cur = advanceBy(t, cur, laterBatch(float64(20+i), "f"+string(rune('a'+i%26)), "40.0.0."+string(rune('0'+i%10))))
		cur.Obs.Index()
	}
	advanceBy(t, p1, laterBatch(20, "e3", "30.0.0.3"))
	close(done)
	wg.Wait()
}

// TestExtendedIndexEqualsRebuilt: along a chain of append-path advances
// the successor's index is the predecessor's extended, never rebuilt,
// and every span equals a from-scratch index over the same columns —
// including torrents past the old maximum ID and a torrent whose first
// rows arrive only now. A batch that interleaves with the existing rows
// leaves the index unbuilt.
func TestExtendedIndexEqualsRebuilt(t *testing.T) {
	at := func(h float64) time.Time { return t0.Add(time.Duration(h * float64(time.Hour))) }
	rec := func(hash string, h float64) *TorrentRecord {
		return &TorrentRecord{InfoHash: strings.Repeat(hash, 20), Published: at(h), Username: "u-" + hash}
	}
	obs := func(tid int, ip string, h float64) Observation {
		return Observation{TorrentID: tid, IP: ip, At: at(h)}
	}
	// step advances prev by recs plus rows given in canonical IDs.
	step := func(prev *Dataset, recs []*TorrentRecord, rows ...Observation) *Dataset {
		merged, _, err := AppendRecords(prev.Torrents, recs)
		if err != nil {
			t.Fatal(err)
		}
		var src ObsStore
		idx, canon := make([]int32, len(rows)), make([]int32, len(rows))
		for i, o := range rows {
			src.Append(o)
			idx[i], canon[i] = int32(i), int32(o.TorrentID)
		}
		out := &Dataset{Torrents: merged}
		AdvanceObs(&out.Obs, &prev.Obs, &src, idx, canon)
		return out
	}
	requireExtended := func(name string, s *ObsStore) {
		t.Helper()
		got := s.builtIndex()
		if got == nil {
			t.Fatalf("%s: index not extended", name)
		}
		want := s.buildIndex()
		if got.Torrents() != want.Torrents() {
			t.Fatalf("%s: %d torrent slots, rebuilt index has %d", name, got.Torrents(), want.Torrents())
		}
		for tid := range want.Torrents() + 1 {
			if !slices.Equal(got.Span(tid), want.Span(tid)) {
				t.Fatalf("%s: span %d = %v, rebuilt %v", name, tid, got.Span(tid), want.Span(tid))
			}
		}
	}

	base := sampleDataset() // torrents 0 and 1, rows until hour 6
	cur := Merge(base.Name, base)
	cur.Obs.Index()
	// Torrent 2 lands without rows; the old torrents grow.
	cur = step(cur, []*TorrentRecord{rec("e1", 7)},
		obs(0, "20.1.2.3", 7), obs(1, "30.0.0.1", 7), obs(0, "30.0.0.2", 8))
	requireExtended("old torrents", &cur.Obs)
	// Torrent 2's first rows, and torrents 3 and 4 past the old maximum.
	cur = step(cur, []*TorrentRecord{rec("e2", 9), rec("e3", 9)},
		obs(2, "30.0.0.3", 9), obs(4, "30.0.0.4", 9), obs(0, "30.0.0.5", 9), obs(0, "10.0.0.1", 9), obs(2, "30.0.0.3", 10))
	requireExtended("new torrents", &cur.Obs)
	// A batch tying the last row's time but sorting after it.
	cur = step(cur, nil, obs(3, "30.0.0.1", 10), obs(4, "30.0.0.1", 10))
	requireExtended("tied time", &cur.Obs)

	if s := step(cur, nil, obs(1, "30.0.0.6", 8)); s.Obs.builtIndex() != nil {
		t.Fatal("interleaving batch extended the index")
	}
}

// TestAppendRecords: a batch appends when none of its records sorts
// before the last existing one — a tie with the last key lands after it,
// as in Merge's stable order — sharing the existing records and
// numbering copies of the new ones in key order. A batch with one record
// that sorts among the existing ones is refused whole, naming it.
func TestAppendRecords(t *testing.T) {
	base := Merge("pb10-test", sampleDataset()) // "ab" at 3 h, "cd" at 5 h
	at := func(h float64) time.Time { return t0.Add(time.Duration(h * float64(time.Hour))) }
	rec := func(hash string, h float64) *TorrentRecord {
		return &TorrentRecord{TorrentID: 7, InfoHash: strings.Repeat(hash, 20), Published: at(h), Username: "u-" + hash}
	}
	later, tie := rec("ee", 6), rec("cd", 5)
	recs, ids, err := AppendRecords(base.Torrents, []*TorrentRecord{later, tie})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ids, []int32{3, 2}) {
		t.Fatalf("added IDs = %v, want [3 2]", ids)
	}
	if recs[0] != base.Torrents[0] || recs[1] != base.Torrents[1] {
		t.Fatal("existing records were copied, not shared")
	}
	if recs[2].Username != tie.Username || recs[3].Username != later.Username {
		t.Fatalf("appended %s, %s; want the tie before the later record", recs[2].Username, recs[3].Username)
	}
	if tie.TorrentID != 7 || later.TorrentID != 7 {
		t.Fatal("AppendRecords renumbered its input")
	}
	want := Merge("pb10-test", sampleDataset(), &Dataset{Torrents: []*TorrentRecord{later, tie}})
	for i, r := range want.Torrents {
		if recs[i].TorrentID != i || recs[i].Username != r.Username {
			t.Fatalf("record %d = %s #%d, Merge has %s", i, recs[i].Username, recs[i].TorrentID, r.Username)
		}
	}

	for _, early := range []*TorrentRecord{rec("bb", 4), rec("ab", 3), rec("cc", 5)} {
		got, ids, err := AppendRecords(base.Torrents, []*TorrentRecord{later, early})
		if err == nil || !strings.Contains(err.Error(), early.InfoHash) || got != nil || ids != nil {
			t.Fatalf("mid-order record %s at %v: got %d records, err %v; want a refusal naming it",
				early.InfoHash[:4], early.Published, len(got), err)
		}
	}
	if _, _, err := AppendRecords(nil, []*TorrentRecord{later, rec("aa", 0)}); err != nil {
		t.Fatalf("append to no records: %v", err)
	}
}

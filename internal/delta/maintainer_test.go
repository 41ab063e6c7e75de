package delta_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"btpub/internal/analysis"
	"btpub/internal/campaign"
	"btpub/internal/dataset"
	"btpub/internal/delta"
	"btpub/internal/geoip"
	"btpub/internal/lake"
)

var (
	campOnce sync.Once
	campRes  *campaign.Result
	campErr  error
)

func campaignDataset(t *testing.T) (*dataset.Dataset, *geoip.DB) {
	t.Helper()
	campOnce.Do(func() {
		campRes, campErr = campaign.Run(campaign.Spec{Scale: 0.01, Seed: 11, MeanDownloads: 120, Shards: 2})
	})
	if campErr != nil {
		t.Fatal(campErr)
	}
	return campRes.Dataset, campRes.DB
}

// replay streams a finished canonical dataset into a lake as a live
// crawl would have produced it: records and observations interleaved in
// time order, flushed in chunks, with deliberate stragglers — some
// observations arrive two chunks late (out of time order, forcing the
// general merge path instead of the append fast path) and some records
// arrive a chunk after their first observations (so a refresh between
// the two drops those rows and orphans the record's lake ID, and the
// refresh that sees the record restarts the fold; lateChunks lists
// those chunks). Records are committed in canonical order, so every
// fold appends them. cb runs after each flush.
func replay(t *testing.T, lk *lake.Lake, ds *dataset.Dataset, chunks int, cb func(chunk int)) {
	t.Helper()
	n := ds.Obs.Len()
	obsChunk, recChunk := schedule(ds, chunks)

	lk.ExtendWindow(ds.Name, ds.Start, ds.End)
	for c := 0; c < chunks; c++ {
		var recs []*dataset.TorrentRecord
		for _, rec := range ds.Torrents {
			if recChunk[rec.TorrentID] == c {
				recs = append(recs, rec)
			}
		}
		if len(recs) > 0 {
			if err := lk.AddTorrents(recs); err != nil {
				t.Fatal(err)
			}
		}
		switch c {
		case chunks / 2:
			if err := lk.AddUsers(ds.Users[:len(ds.Users)/2]); err != nil {
				t.Fatal(err)
			}
		case chunks - 1:
			if err := lk.AddUsers(ds.Users[len(ds.Users)/2:]); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			if obsChunk[i] == c {
				if err := lk.Append(ds.Obs.At(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := lk.Flush(); err != nil {
			t.Fatal(err)
		}
		cb(c)
	}
}

// schedule is replay's delivery plan: obsChunk[i] is the chunk that
// commits observation i, recChunk[id] the chunk that commits record id.
func schedule(ds *dataset.Dataset, chunks int) (obsChunk []int, recChunk map[int]int) {
	n := ds.Obs.Len()
	obsChunk = make([]int, n)
	for i := 0; i < n; i++ {
		c := i * chunks / n
		if i%13 == 5 {
			c += 2 // straggler: arrives late, out of time order
		}
		if c >= chunks {
			c = chunks - 1
		}
		obsChunk[i] = c
	}
	// A record lands in the chunk of its first observation, or of the
	// record before it if that is later; one landing in an odd chunk is
	// held back one more, after rows of its own. Both rules keep the
	// chunks non-decreasing in canonical order.
	recChunk = make(map[int]int, len(ds.Torrents))
	for _, rec := range ds.Torrents {
		recChunk[rec.TorrentID] = chunks - 1
	}
	for i := n - 1; i >= 0; i-- {
		if c, ok := recChunk[ds.Obs.TorrentID(i)]; !ok || obsChunk[i] <= c {
			recChunk[ds.Obs.TorrentID(i)] = obsChunk[i]
		}
	}
	floor := 0
	for _, rec := range ds.Torrents {
		floor = max(floor, recChunk[rec.TorrentID])
		recChunk[rec.TorrentID] = min(floor+floor%2, chunks-1)
	}
	return obsChunk, recChunk
}

// lateChunks lists the chunks of replay's schedule that commit a record
// after some of its rows: with a refresh after every chunk, exactly the
// refreshes that find a record for an orphaned lake ID.
func lateChunks(ds *dataset.Dataset, chunks int) map[int]bool {
	obsChunk, recChunk := schedule(ds, chunks)
	late := map[int]bool{}
	for i, c := range obsChunk {
		if rc := recChunk[ds.Obs.TorrentID(i)]; c < rc {
			late[rc] = true
		}
	}
	return late
}

// fullFingerprint is the from-scratch reference at the lake's head:
// canonical dataset bytes plus the delta fingerprint and rendered paper
// tables.
func fullFingerprint(t *testing.T, an *analysis.Analysis) (string, []byte) {
	t.Helper()
	fp, err := delta.Fingerprint(an)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(analysis.RenderSummary([]analysis.DatasetSummary{an.Summary()}))
	b.WriteString(analysis.RenderSkewness(an.DS.Name, an.Skewness()))
	b.WriteString(analysis.RenderISPTable(an.DS.Name, an.ISPTable(10)))
	b.WriteString(analysis.RenderContrast(an.DS.Name, an.ContrastISPs(geoip.OVH, geoip.Comcast)))
	b.WriteString(analysis.RenderContentTypes(an.DS.Name, an.ContentTypes()))
	b.WriteString(analysis.RenderSeeding(an.DS.Name, an.Seeding(0)))
	var buf bytes.Buffer
	if err := an.DS.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return fp + "\n" + b.String(), buf.Bytes()
}

// requireOracleMatch holds a snapshot of a lake with no concurrent writer
// to the from-scratch oracle at the same version: canonical dataset
// bytes, analysis fingerprint and rendered tables.
func requireOracleMatch(t *testing.T, lk *lake.Lake, db *geoip.DB, snap *delta.Snapshot, chunk int) {
	t.Helper()
	ref, v, err := analysis.NewFromLakeVersion(context.Background(), lk, db, lake.Predicate{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != snap.Version {
		t.Fatalf("chunk %d: snapshot v%d but head is v%d with no concurrent writer", chunk, snap.Version, v)
	}
	gotFP, gotDS := fullFingerprint(t, snap.An)
	wantFP, wantDS := fullFingerprint(t, ref)
	if !bytes.Equal(gotDS, wantDS) {
		t.Fatalf("chunk %d v%d (%s: %s): canonical dataset bytes diverged (%d vs %d bytes)",
			chunk, v, snap.Mode, snap.Reason, len(gotDS), len(wantDS))
	}
	if gotFP != wantFP {
		t.Fatalf("chunk %d v%d (%s: %s): analysis fingerprint diverged", chunk, v, snap.Mode, snap.Reason)
	}
}

// TestMaintainerEquivalenceLive is the tentpole's equivalence gate: at
// every version of a live-ingesting, auto-compacting lake, the
// delta-maintained snapshot must be observably identical — analysis
// fingerprint, rendered tables and canonical dataset bytes — to a
// from-scratch analysis.NewFromLakeVersion build. Run under -race this
// also exercises refreshes racing background compaction, and at least
// one delta refresh must have folded across a compaction's rewrite.
func TestMaintainerEquivalenceLive(t *testing.T) {
	ds, db := campaignDataset(t)
	dir := filepath.Join(t.TempDir(), "lake")
	lk, err := lake.Open(dir, lake.Options{
		FlushRows: 2048,
		Compact:   lake.CompactOptions{Auto: true, MinSegments: 8, TargetRows: 8192},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()

	ctx := context.Background()
	m := delta.NewMaintainer(lk, db, 0)
	const chunks = 10
	crossed := 0 // delta refreshes whose range held a (neutral) rewrite
	check := func(chunk int) {
		// Background compaction can commit between our refresh and the
		// reference rebuild; retry until both see the same version.
		for attempt := 0; ; attempt++ {
			prev := m.Snapshot()
			snap, err := m.Refresh(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if prev != nil && snap.Mode == delta.ModeDelta && snap.Version != prev.Version {
				diff, err := lk.DiffVersions(prev.Version, snap.Version)
				if err != nil {
					t.Fatal(err)
				}
				if len(diff.RetiredSegments) > 0 {
					crossed++
				}
			}
			ref, v, err := analysis.NewFromLakeVersion(ctx, lk, db, lake.Predicate{}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if v != snap.Version {
				if attempt > 20 {
					t.Fatalf("chunk %d: lake head kept moving (snapshot v%d, reference v%d)", chunk, snap.Version, v)
				}
				continue
			}
			gotFP, gotDS := fullFingerprint(t, snap.An)
			wantFP, wantDS := fullFingerprint(t, ref)
			if !bytes.Equal(gotDS, wantDS) {
				t.Fatalf("chunk %d v%d (%s: %s): canonical dataset bytes diverged (%d vs %d bytes)",
					chunk, v, snap.Mode, snap.Reason, len(gotDS), len(wantDS))
			}
			if gotFP != wantFP {
				t.Fatalf("chunk %d v%d (%s: %s): analysis fingerprint diverged", chunk, v, snap.Mode, snap.Reason)
			}
			return
		}
	}
	replay(t, lk, ds, chunks, func(chunk int) {
		check(chunk)
		// Until a refresh has crossed a rewrite — the retry above does
		// whenever a background compaction commits mid-check — compact
		// what the snapshot already holds and check across that.
		if crossed == 0 {
			v := lk.Version()
			if err := lk.Compact(); err != nil {
				t.Fatal(err)
			}
			if lk.Version() != v {
				check(chunk)
			}
		}
	})

	// Background compaction timing decides the delta/full mix here (the
	// deterministic split is asserted in TestMaintainerFallbackExactly-
	// OnRetirement); this run must have built once and folded across a
	// rewrite at least once.
	st := m.Stats()
	if st.FullRebuilds == 0 {
		t.Fatal("no full rebuild recorded (the first build must be one)")
	}
	if crossed == 0 {
		t.Fatal("no delta refresh crossed a compaction")
	}
	t.Logf("live run: %d delta refreshes (%d across a rewrite), %d full rebuilds", st.DeltaRefreshes, crossed, st.FullRebuilds)

	// After the full replay the lake must materialize the original
	// dataset exactly, and the maintained snapshot must match it.
	mat, _, err := lk.Materialize(ctx, lake.Predicate{})
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := ds.Write(&want); err != nil {
		t.Fatal(err)
	}
	if err := mat.Write(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("replayed lake does not materialize the original dataset (%d vs %d bytes)", got.Len(), want.Len())
	}
}

// TestMaintainerFallbackExactlyOnRetirement asserts the fallback
// decision procedure and the delta path's equivalence deterministically:
// after the first build, a refresh rebuilds from scratch exactly when
// the journal diff from the snapshot's version shows a content
// retirement or replay's schedule commits a record after some of its
// rows, and advances incrementally otherwise — and either way the
// snapshot is observably identical to a from-scratch build at the same
// version. Compaction is explicit here so every retirement is
// deterministic, and each kind is pinned:
//   - (a) a compaction of segments the snapshot already holds is a
//     neutral rewrite: ModeDelta with Changed empty;
//   - (b) a compaction that consumed a segment flushed after the
//     snapshot is a content retirement: ModeFull;
//   - (c) salvage (a truncated segment dropped on reopen) is a content
//     retirement: ModeFull;
//   - (d) a late record restarts the fold, naming itself.
func TestMaintainerFallbackExactlyOnRetirement(t *testing.T) {
	ds, db := campaignDataset(t)
	dir := filepath.Join(t.TempDir(), "lake")
	opt := lake.Options{
		FlushRows: 256,
		Compact:   lake.CompactOptions{MinSegments: 2, TargetRows: 1 << 20},
	}
	lk, err := lake.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { lk.Close() }()

	ctx := context.Background()
	m := delta.NewMaintainer(lk, db, 0)
	const chunks = 9
	late := lateChunks(ds, chunks)
	var fullFallbacks, deltas, lateRestarts int
	refresh := func(chunk int) *delta.Snapshot {
		t.Helper()
		prev := m.Snapshot()
		expectFull := prev == nil // first build
		retired, lateRecord := false, late[chunk]
		var contentRetired []string
		if prev != nil {
			diff, err := lk.DiffVersions(prev.Version, 0)
			if err != nil {
				t.Fatal(err)
			}
			contentRetired = diff.ContentRetired
			retired = !diff.Incremental()
			expectFull = retired || lateRecord
		}
		snap, err := m.Refresh(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && snap.Version == prev.Version {
			return snap // empty chunk: no commit, no decision taken
		}
		delete(late, chunk) // the chunk's records are folded now
		gotFull := snap.Mode == delta.ModeFull
		if gotFull != expectFull {
			t.Fatalf("chunk %d: refresh mode %s (reason %q), but journal diff content-retired %v, late record %v",
				chunk, snap.Mode, snap.Reason, contentRetired, lateRecord)
		}
		if prev != nil {
			switch {
			case retired:
				fullFallbacks++
			case gotFull:
				if !strings.Contains(snap.Reason, "landed after its rows") {
					t.Fatalf("chunk %d: late record restarted the fold with reason %q", chunk, snap.Reason)
				}
				lateRestarts++
			default:
				deltas++
			}
		}
		requireOracleMatch(t, lk, db, snap, chunk)
		return snap
	}
	compact := func(chunk int) uint64 {
		t.Helper()
		before := lk.Version()
		if err := lk.Compact(); err != nil {
			t.Fatal(err)
		}
		if lk.Version() != before+1 {
			t.Fatalf("chunk %d: compaction committed nothing", chunk)
		}
		return before + 1
	}
	replay(t, lk, ds, chunks, func(chunk int) {
		switch chunk {
		case 3: // (a): every victim is already in the snapshot.
			refresh(chunk)
			v := compact(chunk)
			snap := refresh(chunk)
			if snap.Version != v || snap.Mode != delta.ModeDelta || len(snap.Changed) != 0 || snap.ChangedAll {
				t.Fatalf("chunk %d: refresh across a neutral compaction = v%d %s (%q), %d changed (all=%v); want v%d delta, none changed",
					chunk, snap.Version, snap.Mode, snap.Reason, len(snap.Changed), snap.ChangedAll, v)
			}
		case 6: // (b): the victims include this chunk's unseen flushes.
			compact(chunk)
			if snap := refresh(chunk); snap.Mode != delta.ModeFull {
				t.Fatalf("chunk %d: compaction of fresh segments refreshed as %s (%q)", chunk, snap.Mode, snap.Reason)
			}
		default:
			refresh(chunk)
		}
	})

	// (c): truncate a live segment and reopen with Salvage; the same
	// maintainer refreshes over the new handle.
	if err := lk.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.obs"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments to truncate (%v)", err)
	}
	if err := os.Truncate(segs[0], 10); err != nil {
		t.Fatal(err)
	}
	opt.Salvage = true
	if lk, err = lake.Open(dir, opt); err != nil {
		t.Fatal(err)
	}
	m.SetLake(lk)
	if snap := refresh(chunks); snap.Mode != delta.ModeFull {
		t.Fatalf("refresh across salvage = %s (%q)", snap.Mode, snap.Reason)
	}

	if deltas == 0 {
		t.Fatal("no incremental refresh decision was exercised")
	}
	t.Logf("%d delta refreshes, %d retirement fallbacks, %d late-record restarts", deltas, fullFallbacks, lateRestarts)
	if lateRestarts == 0 {
		t.Fatal("no late record restarted the fold")
	}
	st := m.Stats()
	if st.DeltaRefreshes != int64(deltas) || st.FullRebuilds != int64(fullFallbacks+lateRestarts)+1 || fullFallbacks != 2 {
		t.Fatalf("stats %+v disagree with observed decisions (%d delta, %d fallback + %d late-record restarts + first build; want 2 fallbacks)",
			st, deltas, fullFallbacks, lateRestarts)
	}
	if fmt.Sprint(st.LastMode) == "" {
		t.Fatal("stats missing last refresh mode")
	}
}

// TestMaintainerDuplicateSortKeys: canonical order is total, so a lake
// whose commits carry records sharing a (Published, InfoHash) key and
// users sharing a username — the copies distinguishable, committed both
// inside one commit and commits apart — is delta-maintained like any
// other: every refresh is observably identical to the from-scratch build
// at its version, before and after a compaction of a freshly flushed
// segment forces the fold to start over from the empty lineage. A record
// copy committed after its original ties the last served key, so it
// appends; one committed after a sighting of its own restarts the fold
// all the same.
func TestMaintainerDuplicateSortKeys(t *testing.T) {
	ds, db := campaignDataset(t)
	const chunks = 8
	last := func(c int) int { return min(c, chunks-1) }

	// Every 4th torrent, and the last of each commit, gets a mirror upload
	// under the same sort key: its own lake ID, uploader and half of the
	// original's sightings. The last torrent of a commit is mirrored in
	// the next one, where the mirror ties the last served key; the others
	// in their original's commit — and ahead of it. A sighting due before
	// its record's commit waits for it (recChunk), so every record lands
	// no later than its rows.
	recs := make([][]*dataset.TorrentRecord, chunks)
	recChunk := map[int]int{}
	mirrorOf := map[int]int{}
	var sameCommit, laterCommit int
	for idx, r := range ds.Torrents {
		c := idx * chunks / len(ds.Torrents)
		lastOfCommit := (idx+1)*chunks/len(ds.Torrents) != c
		if idx%4 == 0 || lastOfCommit {
			m := *r
			m.TorrentID = len(ds.Torrents) + len(mirrorOf)
			m.Username = "mirror-" + r.Username
			mc := c
			if lastOfCommit {
				mc = last(c + 1)
			}
			mirrorOf[r.TorrentID] = m.TorrentID
			recs[mc] = append(recs[mc], &m)
			recChunk[m.TorrentID] = mc
			if mc == c {
				sameCommit++
			} else {
				laterCommit++
			}
		}
		recs[c] = append(recs[c], r)
		recChunk[r.TorrentID] = c
	}
	// Every other account is listed twice with contradicting Exists flags,
	// alternately beside the original (chunk 1) and three commits later.
	users := make([][]dataset.UserRecord, chunks)
	users[1] = ds.Users
	for i := 0; i < len(ds.Users); i += 2 {
		u := ds.Users[i]
		u.Exists = !u.Exists
		c := 1 + 3*(i/2%2)
		users[c] = append(users[c], u)
	}
	if sameCommit == 0 || laterCommit == 0 || len(users[4]) == 0 {
		t.Fatalf("fixture too small: %d/%d mirrors in/after their original's commit, %d late users",
			sameCommit, laterCommit, len(users[4]))
	}

	lk, err := lake.Open(filepath.Join(t.TempDir(), "lake"), lake.Options{
		FlushRows: 4096,
		Compact:   lake.CompactOptions{MinSegments: 2, TargetRows: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()
	lk.ExtendWindow(ds.Name, ds.Start, ds.End)

	ctx := context.Background()
	m := delta.NewMaintainer(lk, db, 0)
	n := ds.Obs.Len()
	held := make([][]dataset.Observation, chunks)
	for c := 0; c < chunks; c++ {
		if err := lk.AddTorrents(recs[c]); err != nil {
			t.Fatal(err)
		}
		if err := lk.AddUsers(users[c]); err != nil {
			t.Fatal(err)
		}
		rows := held[c]
		for i := c * n / chunks; i < (c+1)*n/chunks; i++ {
			o := ds.Obs.At(i)
			rows = append(rows, o)
			if mid, ok := mirrorOf[o.TorrentID]; ok && i%2 == 0 {
				o.TorrentID = mid
				rows = append(rows, o)
			}
		}
		for _, o := range rows {
			if rc := recChunk[o.TorrentID]; rc > c {
				held[rc] = append(held[rc], o)
			} else if err := lk.Append(o); err != nil {
				t.Fatal(err)
			}
		}
		if err := lk.Flush(); err != nil {
			t.Fatal(err)
		}
		if c == 5 {
			if err := lk.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := m.Refresh(ctx)
		if err != nil {
			t.Fatal(err)
		}
		requireOracleMatch(t, lk, db, snap, c)
	}
	st := m.Stats()
	if st.DeltaRefreshes != chunks-2 || st.FullRebuilds != 2 {
		t.Fatalf("stats %+v, want %d delta refreshes around the first build and one compaction-forced rebuild", st, chunks-2)
	}
	final := m.Snapshot().An.DS
	if len(final.Torrents) != len(ds.Torrents)+len(mirrorOf) || len(final.Users) != len(ds.Users)+(len(ds.Users)+1)/2 {
		t.Fatalf("final snapshot holds %d records and %d users: duplicates were collapsed", len(final.Torrents), len(final.Users))
	}

	// One more copy of the last record, committed a commit after its only
	// sighting: it ties the last served key, but the sighting was dropped
	// when folded, so the record restarts the fold.
	lastRec := ds.Torrents[len(ds.Torrents)-1]
	late := *lastRec
	late.TorrentID, late.Username = len(ds.Torrents)+len(mirrorOf), "late-"+lastRec.Username
	step := func() *delta.Snapshot {
		t.Helper()
		if err := lk.Flush(); err != nil {
			t.Fatal(err)
		}
		snap, err := m.Refresh(ctx)
		if err != nil {
			t.Fatal(err)
		}
		requireOracleMatch(t, lk, db, snap, chunks)
		return snap
	}
	if err := lk.Append(dataset.Observation{TorrentID: late.TorrentID, IP: "198.51.100.7", At: lastRec.Published}); err != nil {
		t.Fatal(err)
	}
	if snap := step(); snap.Mode != delta.ModeDelta || snap.An.DS.DroppedObservations != final.DroppedObservations+1 {
		t.Fatalf("a sighting with no record refreshed as %s (%q) with %d dropped, want delta with %d",
			snap.Mode, snap.Reason, snap.An.DS.DroppedObservations, final.DroppedObservations+1)
	}
	if err := lk.AddTorrents([]*dataset.TorrentRecord{&late}); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("record %s landed after its rows", late.InfoHash)
	if snap := step(); snap.Mode != delta.ModeFull || snap.Reason != want || len(snap.An.DS.Torrents) != len(final.Torrents)+1 {
		t.Fatalf("the late copy refreshed as %s (%q) with %d records, want full (%q) with %d",
			snap.Mode, snap.Reason, len(snap.An.DS.Torrents), want, len(final.Torrents)+1)
	}
}

// TestMaintainerRecordBoundary: a fold only appends records. A commit
// whose first record ties the last served key folds as a delta; one
// holding a record that sorts among the served ones starts over from the
// empty lineage, naming that record; the next commit that appends folds as
// a delta again. Every refresh matches the from-scratch oracle.
func TestMaintainerRecordBoundary(t *testing.T) {
	ds, db := campaignDataset(t)
	lk, err := lake.Open(filepath.Join(t.TempDir(), "lake"), lake.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()
	lk.ExtendWindow(ds.Name, ds.Start, ds.End)

	ctx := context.Background()
	m := delta.NewMaintainer(lk, db, 0)
	k, n := len(ds.Torrents), ds.Obs.Len()
	nextID := k
	// copyOf is a new upload under rec's sort key, with its own lake ID,
	// uploader and one sighting.
	copyOf := func(rec *dataset.TorrentRecord, who string) (*dataset.TorrentRecord, dataset.Observation) {
		c := *rec
		c.TorrentID, c.Username = nextID, who+"-"+rec.Username
		nextID++
		return &c, dataset.Observation{TorrentID: c.TorrentID, IP: "20.9.9.9", At: c.Published.Add(time.Minute)}
	}
	// commit adds records by canonical position and rows by time; a row
	// whose record is not committed yet waits for it (held), so every
	// record lands no later than its rows.
	committed := map[int]bool{}
	var held []dataset.Observation
	commit := func(step string, recs []*dataset.TorrentRecord, obs []dataset.Observation, from, to int) *delta.Snapshot {
		t.Helper()
		if err := lk.AddTorrents(recs); err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			committed[r.TorrentID] = true
		}
		for i := from * n / 8; i < to*n/8; i++ {
			obs = append(obs, ds.Obs.At(i))
		}
		obs, held = append(held, obs...), nil
		for _, o := range obs {
			if !committed[o.TorrentID] {
				held = append(held, o)
			} else if err := lk.Append(o); err != nil {
				t.Fatal(err)
			}
		}
		if err := lk.Flush(); err != nil {
			t.Fatal(err)
		}
		snap, err := m.Refresh(ctx)
		if err != nil {
			t.Fatal(err)
		}
		requireOracleMatch(t, lk, db, snap, to)
		t.Logf("%s: %s (%s)", step, snap.Mode, snap.Reason)
		return snap
	}

	commit("first build", ds.Torrents[:k/2], nil, 0, 4)
	tie, tieObs := copyOf(ds.Torrents[k/2-1], "tie")
	if snap := commit("tie", append([]*dataset.TorrentRecord{tie}, ds.Torrents[k/2:5*k/8]...), []dataset.Observation{tieObs}, 4, 5); snap.Mode != delta.ModeDelta {
		t.Fatalf("a record tying the last served key refreshed as %s (%q)", snap.Mode, snap.Reason)
	}
	early, earlyObs := copyOf(ds.Torrents[k/4], "early")
	snap := commit("mid-order", append(slices.Clone(ds.Torrents[5*k/8:6*k/8]), early), []dataset.Observation{earlyObs}, 5, 6)
	if want := fmt.Sprintf("record %s sorts before the last of %d records", early.InfoHash, 5*k/8+1); snap.Mode != delta.ModeFull || snap.Reason != want {
		t.Fatalf("a record sorting among the served ones refreshed as %s (%q), want full (%q)", snap.Mode, snap.Reason, want)
	}
	if snap := commit("append", ds.Torrents[6*k/8:], nil, 6, 8); snap.Mode != delta.ModeDelta {
		t.Fatalf("the append after a restart refreshed as %s (%q)", snap.Mode, snap.Reason)
	}
	if st := m.Stats(); st.DeltaRefreshes != 2 || st.FullRebuilds != 2 {
		t.Fatalf("stats %+v, want 2 delta refreshes and 2 full rebuilds", st)
	}
}

// TestMaintainerSerialLiveShape replays the lake of a serial live crawl:
// rows stream in over several commits with no record at all, and every
// record and user lands in the final commit. Until then each snapshot
// serves no torrent and counts every row dropped, exactly as
// Materialize does, and folds as a delta; the final refresh starts over
// from the empty lineage, naming the first record whose rows came
// early. The oracle matches at every version.
func TestMaintainerSerialLiveShape(t *testing.T) {
	ds, db := campaignDataset(t)
	lk, err := lake.Open(filepath.Join(t.TempDir(), "lake"), lake.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()
	lk.ExtendWindow(ds.Name, ds.Start, ds.End)

	ctx := context.Background()
	m := delta.NewMaintainer(lk, db, 0)
	const chunks = 5
	n := ds.Obs.Len()
	last := (chunks - 1) * n / chunks // first row of the final commit
	early := map[int]bool{}
	for i := range last {
		early[ds.Obs.TorrentID(i)] = true
	}
	var want string
	for _, r := range ds.Torrents {
		if early[r.TorrentID] {
			want = fmt.Sprintf("record %s landed after its rows", r.InfoHash)
			break
		}
	}
	for c := 0; c < chunks; c++ {
		final := c == chunks-1
		if final {
			if err := lk.AddTorrents(ds.Torrents); err != nil {
				t.Fatal(err)
			}
			if err := lk.AddUsers(ds.Users); err != nil {
				t.Fatal(err)
			}
		}
		for i := c * n / chunks; i < (c+1)*n/chunks; i++ {
			if err := lk.Append(ds.Obs.At(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := lk.Flush(); err != nil {
			t.Fatal(err)
		}
		snap, err := m.Refresh(ctx)
		if err != nil {
			t.Fatal(err)
		}
		requireOracleMatch(t, lk, db, snap, c)
		if final {
			if snap.Mode != delta.ModeFull || snap.Reason != want {
				t.Fatalf("the records' commit refreshed as %s (%q), want full (%q)", snap.Mode, snap.Reason, want)
			}
			continue
		}
		mat, _, err := lk.Materialize(ctx, lake.Predicate{})
		if err != nil {
			t.Fatal(err)
		}
		got := snap.An.DS
		if len(got.Torrents) != 0 || got.NumObservations() != 0 || got.DroppedObservations != mat.DroppedObservations {
			t.Fatalf("chunk %d: snapshot serves %d torrents, %d rows and %d dropped; Materialize drops %d",
				c, len(got.Torrents), got.NumObservations(), got.DroppedObservations, mat.DroppedObservations)
		}
		if c > 0 && snap.Mode != delta.ModeDelta {
			t.Fatalf("chunk %d: rows without records refreshed as %s (%q), want delta", c, snap.Mode, snap.Reason)
		}
	}
}

// TestMaintainerOrphanAddressStaysOut: an address that only rows with no
// committed record carry is not a distinct IP of the snapshot — after a
// first build and after a delta fold alike — until its record lands, as
// Merge keeps it out of the oracle's Table 1 count.
func TestMaintainerOrphanAddressStaysOut(t *testing.T) {
	ds, db := campaignDataset(t)
	lk, err := lake.Open(filepath.Join(t.TempDir(), "lake"), lake.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()
	lk.ExtendWindow(ds.Name, ds.Start, ds.End)

	ctx := context.Background()
	m := delta.NewMaintainer(lk, db, 0)
	k := len(ds.Torrents)
	orphan := *ds.Torrents[k-1] // committed last; it ties the last key
	orphan.TorrentID, orphan.Username = k, "orphan-"+orphan.Username
	committed := map[int]bool{}
	commits := 0
	commit := func(recs []*dataset.TorrentRecord, from, to int, orphanIP string) *delta.Snapshot {
		t.Helper()
		if err := lk.AddTorrents(recs); err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			committed[r.TorrentID] = true
		}
		for i := from; i < to; i++ {
			if o := ds.Obs.At(i); committed[o.TorrentID] {
				if err := lk.Append(o); err != nil {
					t.Fatal(err)
				}
			}
		}
		if orphanIP != "" {
			if err := lk.Append(dataset.Observation{TorrentID: orphan.TorrentID, IP: orphanIP, At: ds.Obs.Time(to - 1)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := lk.Flush(); err != nil {
			t.Fatal(err)
		}
		snap, err := m.Refresh(ctx)
		if err != nil {
			t.Fatal(err)
		}
		commits++
		requireOracleMatch(t, lk, db, snap, commits)
		ref, _, err := analysis.NewFromLakeVersion(ctx, lk, db, lake.Predicate{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := snap.An.Summary().DistinctIPs, ref.Summary().DistinctIPs; got != want {
			t.Fatalf("v%d (%s): %d distinct IPs, the oracle counts %d", snap.Version, snap.Mode, got, want)
		}
		return snap
	}
	addrs := []string{"198.51.100.1", "198.51.100.2"}
	n := ds.Obs.Len()
	for step, snap := range []*delta.Snapshot{
		commit(ds.Torrents[:k/2], 0, n/2, addrs[0]),
		commit(ds.Torrents[k/2:k-1], n/2, n-1, addrs[1]),
	} {
		if want := []delta.Mode{delta.ModeFull, delta.ModeDelta}[step]; snap.Mode != want {
			t.Fatalf("step %d refreshed as %s (%q), want %s", step, snap.Mode, snap.Reason, want)
		}
		for _, ip := range addrs {
			if _, ok := snap.An.DS.Obs.IPs().Lookup(ip); ok {
				t.Fatalf("step %d (%s): orphan-only address %s is in the snapshot's intern table", step, snap.Mode, ip)
			}
		}
	}
	snap := commit([]*dataset.TorrentRecord{ds.Torrents[k-1], &orphan}, n-1, n, "")
	if snap.Mode != delta.ModeFull {
		t.Fatalf("the orphan's record refreshed as %s (%q), want full", snap.Mode, snap.Reason)
	}
	for _, ip := range addrs {
		if _, ok := snap.An.DS.Obs.IPs().Lookup(ip); !ok {
			t.Fatalf("address %s missing once its record landed", ip)
		}
	}
}

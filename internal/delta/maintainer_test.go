package delta_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

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
// arrive two chunks after their first observations (so those rows sit in
// the pending buffer until the record lands). cb runs after each flush.
func replay(t *testing.T, lk *lake.Lake, ds *dataset.Dataset, chunks int, cb func(chunk int)) {
	t.Helper()
	n := ds.Obs.Len()
	obsChunk := make([]int, n)
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
	// A record lands in the chunk of its first observation; every 7th is
	// held back two more chunks so its rows go through the pending path.
	recChunk := make(map[int]int, len(ds.Torrents))
	for _, rec := range ds.Torrents {
		recChunk[rec.TorrentID] = chunks - 1
	}
	for i := n - 1; i >= 0; i-- {
		if c, ok := recChunk[ds.Obs.TorrentID(i)]; !ok || obsChunk[i] <= c {
			recChunk[ds.Obs.TorrentID(i)] = obsChunk[i]
		}
	}
	for idx, rec := range ds.Torrents {
		c := recChunk[rec.TorrentID]
		if idx%7 == 3 {
			c += 2
		}
		if c >= chunks {
			c = chunks - 1
		}
		recChunk[rec.TorrentID] = c
	}

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
// every version of a live-appending, auto-compacting lake, the
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
// retirement, and advances incrementally otherwise — and either way the
// snapshot is observably identical to a from-scratch build at the same
// version. Compaction is explicit here so every retirement is
// deterministic, and each kind is pinned:
//   - (a) a compaction of segments the snapshot already holds is a
//     neutral rewrite: ModeDelta with Changed empty;
//   - (b) a compaction that consumed a segment flushed after the
//     snapshot is a content retirement: ModeFull;
//   - (c) salvage (a truncated segment dropped on reopen) is a content
//     retirement: ModeFull.
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
	var fullFallbacks, deltas int
	refresh := func(chunk int) *delta.Snapshot {
		t.Helper()
		prev := m.Snapshot()
		expectFull := prev == nil // first build
		var contentRetired []string
		if prev != nil {
			diff, err := lk.DiffVersions(prev.Version, 0)
			if err != nil {
				t.Fatal(err)
			}
			contentRetired = diff.ContentRetired
			expectFull = !diff.Incremental()
		}
		snap, err := m.Refresh(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && snap.Version == prev.Version {
			return snap // empty chunk: no commit, no decision taken
		}
		gotFull := snap.Mode == delta.ModeFull
		if gotFull != expectFull {
			t.Fatalf("chunk %d: refresh mode %s (reason %q), but journal diff content-retired %v",
				chunk, snap.Mode, snap.Reason, contentRetired)
		}
		if prev != nil {
			if gotFull {
				fullFallbacks++
			} else {
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
	const chunks = 9
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
	st := m.Stats()
	if st.DeltaRefreshes != int64(deltas) || st.FullRebuilds != int64(fullFallbacks)+1 || fullFallbacks != 2 {
		t.Fatalf("stats %+v disagree with observed decisions (%d delta, %d fallback + first build; want 2 fallbacks)",
			st, deltas, fullFallbacks)
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
// segment forces the fold to start over from the empty lineage.
func TestMaintainerDuplicateSortKeys(t *testing.T) {
	ds, db := campaignDataset(t)
	const chunks = 8
	last := func(c int) int { return min(c, chunks-1) }

	// Every 4th torrent gets a mirror upload under the same sort key: its
	// own lake ID, uploader and half of the original's sightings. Odd
	// mirrors are committed one chunk after their original, even ones in
	// the same commit — and ahead of it.
	recs := make([][]*dataset.TorrentRecord, chunks)
	mirrorOf := map[int]int{}
	var sameCommit, laterCommit int
	for idx, r := range ds.Torrents {
		c := idx * chunks / len(ds.Torrents)
		if idx%4 == 0 {
			m := *r
			m.TorrentID = len(ds.Torrents) + len(mirrorOf)
			m.Username = "mirror-" + r.Username
			mc := last(c + len(mirrorOf)%2)
			mirrorOf[r.TorrentID] = m.TorrentID
			recs[mc] = append(recs[mc], &m)
			if mc == c {
				sameCommit++
			} else {
				laterCommit++
			}
		}
		recs[c] = append(recs[c], r)
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
	for c := 0; c < chunks; c++ {
		if err := lk.AddTorrents(recs[c]); err != nil {
			t.Fatal(err)
		}
		if err := lk.AddUsers(users[c]); err != nil {
			t.Fatal(err)
		}
		for i := c * n / chunks; i < (c+1)*n/chunks; i++ {
			o := ds.Obs.At(i)
			if err := lk.Append(o); err != nil {
				t.Fatal(err)
			}
			if mid, ok := mirrorOf[o.TorrentID]; ok && i%2 == 0 {
				o.TorrentID = mid
				if err := lk.Append(o); err != nil {
					t.Fatal(err)
				}
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
}

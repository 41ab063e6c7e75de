// Package delta maintains analysis snapshots over a live-ingesting lake
// incrementally. Where a from-scratch build (lake.Materialize, then
// analysis.New) re-reads and re-sorts the whole lake on every journal
// version bump — O(lake) work per refresh — the Maintainer asks the
// journal what changed (lake.ReadDiff) and folds only the added records
// and observations into the previous immutable snapshot. The fold is
// O(delta) wherever the work is O(observations): records append to the
// canonical order (dataset.AppendRecords), so a canonical torrent ID
// never changes within a lineage, and users merge-insert; new
// observation rows sort and merge into the canonical columns
// (dataset.AdvanceObs), which in the steady state (rows arriving after
// the last one) grow in place along with the per-torrent index; and the
// two distinct-download aggregates (classify.FactsSeed) bump only on an
// (IP, torrent) or (IP, identity) pair the lineage has not counted yet.
// Everything O(torrents + users) — the record list, facts, groups, the
// business classification — is rebuilt per refresh, which keeps the
// equivalence argument short: a maintained snapshot is observably
// identical — analysis fingerprint and served table bodies — to that
// from-scratch build at the same version, which the tests and the
// benchmark keep as their oracle.
//
// The lineage a fold carries to the next is the lake→canonical torrent
// ID map, the count of dropped rows, the per-torrent and per-identity
// distinct-download counters, and behind them, per interned IP, the
// sorted sets of canonical torrent IDs and identities it has been
// counted for (ipTorrents, ipIdents; a first fold builds them in bulk
// with one counting sort). It holds no observations. A diff row whose
// torrent has no committed record is dropped and counted, exactly as
// Materialize drops it, and its lake ID is orphaned: the row is in no
// store, so when a record for that ID lands, the fold starts over.
//
// There is one build path. A compaction is a journal rewrite — the same
// rows in fewer files — and the lineage is keyed by canonical row
// position and lake torrent ID, not by file, so the Maintainer folds
// across it: a diff holding only rewrites folds as an empty delta, a
// new version with Changed empty. A content retirement in the diff
// (salvage, or a compaction that consumed rows added since the served
// version) invalidates positional state, as do a base version that left
// the journal, a committed record that sorts among the served ones
// (its canonical ID would shift theirs) and one for an orphaned lake ID
// (a serial live crawl commits every record after its rows); the
// Maintainer then folds the whole lake (lake.ReadAll) into an empty
// lineage through the same function — and the first build is exactly
// that too. Canonical order is total (dataset.Merge sorts stably; ties
// keep commit order), so duplicate record keys or usernames need no
// special case: a record tying the last served key appends.
//
// Concurrency: Refresh calls are serialized by the Maintainer's lock and
// are the only code that touches the shared intern table's maps or
// writes past the length of a published store or LakeIDs; published
// snapshots only ever read slice data up to their own lengths, which no
// later fold rewrites (see internal/dataset's delta contract), so
// serving older snapshots while a refresh runs is race-free. Refresh publishes each
// snapshot together with the refresh counters through one atomic
// pointer, so Snapshot and Stats never take the refresh lock: a refresh
// parked on a slow lake read delays neither.
package delta

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"btpub/internal/analysis"
	"btpub/internal/classify"
	"btpub/internal/dataset"
	"btpub/internal/geoip"
	"btpub/internal/lake"
)

// Mode says how a snapshot was produced.
type Mode string

const (
	// ModeFull folded the whole lake into an empty lineage.
	ModeFull Mode = "full"
	// ModeDelta folded a journal diff into the previous snapshot.
	ModeDelta Mode = "delta"
)

// Snapshot is one published analysis state.
type Snapshot struct {
	An      *analysis.Analysis
	Version uint64
	// LakeIDs[ct] is the lake torrent ID of canonical record ct
	// (An.DS.Torrents[ct]): the ID the lake's own readers (lake.Scan,
	// internal/query) know that torrent by.
	LakeIDs []int
	// Mode says what the fold started from; Reason why it started over
	// (ModeFull) or what it folded (ModeDelta).
	Mode   Mode
	Reason string
	// DeltaSegments / DeltaObs size the folded range (delta mode only).
	DeltaSegments int
	DeltaObs      int64
	// Changed lists the publisher identities the refresh touched — new
	// records or new observations on their torrents — sorted; nil with
	// ChangedAll set means every identity (ModeFull). The alert engine
	// scores exactly these on each refresh.
	Changed    []string
	ChangedAll bool
}

// Stats counts refresh outcomes for /api/v1/stats.
type Stats struct {
	DeltaRefreshes    int64  `json:"delta_refreshes"`
	FullRebuilds      int64  `json:"full_rebuilds"`
	LastMode          string `json:"refresh_mode,omitempty"`
	LastReason        string `json:"last_refresh_reason,omitempty"`
	LastDeltaSegments int    `json:"last_delta_segments"`
	LastDeltaObs      int64  `json:"last_delta_observations"`
	// LastRefreshMs is the wall time of the last Refresh that moved the
	// version, fold and analysis build included.
	LastRefreshMs float64 `json:"last_refresh_ms"`
}

// Maintainer owns a snapshot lineage over one lake.
type Maintainer struct {
	lk   *lake.Lake
	db   *geoip.DB
	topK int

	// mu serializes Refresh. lin is the positional state the published
	// snapshot's dataset can be advanced with; nil before the first build
	// and after a failed fold, which both make the next Refresh start
	// over from the empty lineage.
	mu  sync.Mutex
	lin *lineage

	// pub is the last published snapshot and the counters as of its
	// refresh (nil before the first successful Refresh).
	pub atomic.Pointer[published]
}

// published is what one Refresh publishes: the snapshot and the
// refresh counters including it.
type published struct {
	snap  *Snapshot
	stats Stats
}

// lineage is the state a fold carries from one snapshot to the next. It
// is in sync with exactly one canonical dataset: the intern table that
// dataset's store shares, the lake→canonical ID map, the dropped-row
// count and the distinct-download counters with the pair sets behind
// them. It holds no observations: a diff row whose torrent has no
// committed record is dropped, as Materialize drops it, and its lake ID
// is orphaned — a record committed for it later restarts the fold.
type lineage struct {
	// lakeToCanon maps a lake torrent ID to its canonical torrent ID, or
	// to orphan once rows have been dropped for want of its record.
	lakeToCanon map[int]int32
	dropped     int // rows dropped for want of their record
	// lakeIDs, owners and counts are indexed by canonical torrent ID and,
	// like the records, only append: lakeIDs[ct] is ct's lake ID,
	// owners[ct] its publisher identity's dense ID (-1: none) and
	// counts[ct] its distinct downloader IPs.
	lakeIDs []int
	owners  []int32
	counts  []int
	userDL  map[string]int // distinct downloader IPs per identity
	// ipTorrents[ip] and ipIdents[ip] are the sorted sets of canonical
	// torrent IDs and identity IDs the shared-table IP ip has been
	// counted for: a placed row bumps counts or userDL only on a pair new
	// to them. Canonical IDs never change within a lineage, and intern
	// indices are stable because the table is append-only.
	ipTorrents [][]int32
	ipIdents   [][]int32
	identID    map[string]int32 // publisher identity → dense ID
	idents     []string         // dense ID → identity
}

// NewMaintainer creates a maintainer; db must be non-nil (analysis
// requires it), topK as in analysis.New.
func NewMaintainer(lk *lake.Lake, db *geoip.DB, topK int) *Maintainer {
	return &Maintainer{lk: lk, db: db, topK: topK}
}

// Snapshot returns the last published snapshot (nil before the first
// successful Refresh). It does not wait for a running Refresh.
func (m *Maintainer) Snapshot() *Snapshot {
	if p := m.pub.Load(); p != nil {
		return p.snap
	}
	return nil
}

// Stats returns refresh counters. It does not wait for a running
// Refresh.
func (m *Maintainer) Stats() Stats {
	if p := m.pub.Load(); p != nil {
		return p.stats
	}
	return Stats{}
}

// Refresh brings the snapshot to the lake's committed head: it folds the
// journal diff since the served version into the lineage when that diff
// is incremental (additions and neutral rewrites) and its records
// append, none for an orphaned lake ID, and the whole lake into an empty
// lineage otherwise. It returns the current snapshot unchanged when the
// head hasn't moved.
func (m *Maintainer) Refresh(ctx context.Context) (*Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	start := time.Now()
	var cur published
	if p := m.pub.Load(); p != nil {
		cur = *p
	}
	// restart says why the lineage cannot be advanced ("" = it can).
	var restart string
	var dd *lake.DiffData
	switch {
	case cur.snap == nil:
		restart = "first build"
	case m.lin == nil:
		restart = fmt.Sprintf("the fold from v%d failed", cur.snap.Version)
	default:
		var err error
		var vu *lake.VersionUnavailableError
		dd, err = m.lk.ReadDiff(ctx, cur.snap.Version)
		switch {
		case errors.As(err, &vu):
			restart = fmt.Sprintf("base v%d unavailable: %s", cur.snap.Version, vu.Reason)
		case err != nil:
			return nil, err
		case dd.Diff.To == cur.snap.Version:
			return cur.snap, nil
		case !dd.Diff.Incremental():
			restart = fmt.Sprintf("content retirement of %d segment(s) since v%d", len(dd.Diff.ContentRetired), cur.snap.Version)
		}
	}
	if restart == "" {
		restart = m.lin.lateRecord(dd.Torrents)
	}
	prev := &dataset.Dataset{}
	var recs []*dataset.TorrentRecord
	var addIDs []int32
	if restart == "" {
		var err error
		if recs, addIDs, err = dataset.AppendRecords(cur.snap.An.DS.Torrents, dd.Torrents); err != nil {
			restart = err.Error()
		} else {
			prev = cur.snap.An.DS
		}
	}
	if restart != "" {
		var err error
		if dd, err = m.lk.ReadAll(ctx); err != nil {
			return nil, err
		}
		m.lin = &lineage{lakeToCanon: map[int]int32{}, userDL: map[string]int{}, identID: map[string]int32{}}
		// AppendRecords onto no records cannot fail.
		recs, addIDs, _ = dataset.AppendRecords(nil, dd.Torrents)
	}
	an, lakeIDs, changed, err := m.lin.fold(prev, recs, addIDs, dd, m.db, m.topK)
	if err != nil {
		// The fold mutates the lineage as it goes; never advance from a
		// half-applied one.
		m.lin = nil
		return nil, err
	}
	snap := &Snapshot{An: an, Version: dd.Info.Version, LakeIDs: lakeIDs}
	st := cur.stats
	if restart != "" {
		snap.Mode, snap.Reason, snap.ChangedAll = ModeFull, restart, true
		st.FullRebuilds++
	} else {
		snap.Mode, snap.Changed = ModeDelta, changed
		snap.Reason = fmt.Sprintf("folded %d segment(s), %d row(s), %d record(s) from v%d to v%d",
			len(dd.Diff.AddedSegments), dd.Diff.AddedRows, len(dd.Torrents), dd.Diff.From, dd.Diff.To)
		snap.DeltaSegments, snap.DeltaObs = len(dd.Diff.AddedSegments), dd.Diff.AddedRows
		st.DeltaRefreshes++
	}
	st.LastMode, st.LastReason = string(snap.Mode), snap.Reason
	st.LastDeltaSegments, st.LastDeltaObs = snap.DeltaSegments, snap.DeltaObs
	st.LastRefreshMs = float64(time.Since(start).Microseconds()) / 1e3
	m.pub.Store(&published{snap: snap, stats: st})
	return snap, nil
}

// orphan marks a lake torrent ID in lakeToCanon whose rows were dropped.
const orphan int32 = -1

// lateRecord names the first of recs committed for an orphaned lake ID
// ("" if none). Its dropped rows are in no store, so the fold cannot
// append it.
func (l *lineage) lateRecord(recs []*dataset.TorrentRecord) string {
	for _, r := range recs {
		if l.lakeToCanon[r.TorrentID] == orphan {
			return fmt.Sprintf("record %s landed after its rows", r.InfoHash)
		}
	}
	return ""
}

// fold advances the canonical dataset prev — which the lineage must be
// in sync with — to the record list recs (prev's records followed by
// dd's, dd.Torrents[j] appended as canonical ID addIDs[j]) and by the
// users and observations in dd, and builds the analysis over the result.
// It returns the canonical→lake torrent IDs and the sorted publisher
// identities the fold touched. prev is left exactly as published; the
// lineage is mutated throughout, so the caller must drop it on error.
func (l *lineage) fold(prev *dataset.Dataset, recs []*dataset.TorrentRecord, addIDs []int32, dd *lake.DiffData, db *geoip.DB, topK int) (*analysis.Analysis, []int, []string, error) {
	// Register the appended records under their canonical IDs.
	n := len(prev.Torrents)
	l.lakeIDs = append(l.lakeIDs, make([]int, len(addIDs))...)
	for j, r := range dd.Torrents {
		l.lakeToCanon[r.TorrentID] = addIDs[j]
		l.lakeIDs[addIDs[j]] = r.TorrentID
	}
	for _, r := range recs[n:] {
		l.owners = append(l.owners, l.identity(r.PublisherKey()))
		l.counts = append(l.counts, 0)
	}

	// Place the diff's rows whose record is committed; drop the rest,
	// marking their lake IDs orphaned.
	rows := make([]int32, 0, dd.Obs.Len())
	tids := make([]int32, 0, dd.Obs.Len())
	for i := range dd.Obs.Len() {
		lt := dd.Obs.TorrentID(i)
		if ct, ok := l.lakeToCanon[lt]; ok && ct != orphan {
			rows, tids = append(rows, int32(i)), append(tids, ct)
		} else {
			l.lakeToCanon[lt] = orphan
			l.dropped++
		}
	}

	ds := &dataset.Dataset{
		Name: dd.Info.Name, Start: dd.Info.Start, End: dd.Info.End,
		Torrents:            recs,
		Users:               dataset.MergeUsers(prev.Users, dd.Users),
		DroppedObservations: l.dropped + int(dd.Info.Dropped),
	}
	placedIPs := dataset.AdvanceObs(&ds.Obs, &prev.Obs, &dd.Obs, rows, tids)

	// Count the placed rows' new (IP, torrent) and (IP, identity) pairs.
	if l.ipTorrents == nil {
		l.countBulk(ds.Obs.IPs().Len(), placedIPs, tids)
	} else {
		l.ipTorrents = growTo(l.ipTorrents, ds.Obs.IPs().Len())
		l.ipIdents = growTo(l.ipIdents, ds.Obs.IPs().Len())
		for j, ip := range placedIPs {
			ct := tids[j]
			if insertSorted(&l.ipTorrents[ip], ct) {
				l.counts[ct]++
			}
			if id := l.owners[ct]; id >= 0 && insertSorted(&l.ipIdents[ip], id) {
				l.userDL[l.idents[id]]++
			}
		}
	}

	// The fold touched every identity owning a new record or a placed
	// row's torrent.
	touched := make([]bool, len(l.idents))
	for _, cts := range [][]int32{addIDs, tids} {
		for _, ct := range cts {
			if id := l.owners[ct]; id >= 0 {
				touched[id] = true
			}
		}
	}
	var changed []string
	for id, ok := range touched {
		if ok {
			changed = append(changed, l.idents[id])
		}
	}
	slices.Sort(changed)

	seed := &classify.FactsSeed{DownloadsByTorrent: l.counts, UserDownloads: l.userDL}
	an, err := analysis.NewSeeded(ds, db, topK, seed)
	return an, slices.Clip(l.lakeIDs), changed, err
}

// identity returns the dense ID of a publisher identity, registering it
// on first sight; -1 for the empty (anonymous) key.
func (l *lineage) identity(name string) int32 {
	if name == "" {
		return -1
	}
	id, ok := l.identID[name]
	if !ok {
		id = int32(len(l.idents))
		l.identID[name] = id
		l.idents = append(l.idents, name)
	}
	return id
}

// countBulk builds the per-IP pair sets and both counters from scratch
// over the rows of a first fold: one counting sort of the rows by IP,
// each IP's keys sorted and deduplicated into one shared backing array
// per set — a few allocations however many rows, where inserting row by
// row would allocate per IP. Each set is capped at its length, so a
// later insert reallocates it instead of overwriting its neighbour.
func (l *lineage) countBulk(nIPs int, ips []uint32, tids []int32) {
	starts := make([]int32, nIPs+1)
	for _, ip := range ips {
		starts[ip+1]++
	}
	for i := 1; i <= nIPs; i++ {
		starts[i] += starts[i-1]
	}
	order := make([]int32, len(ips))
	next := slices.Clone(starts[:nIPs])
	for j, ip := range ips {
		order[next[ip]] = int32(j)
		next[ip]++
	}
	userDL := make([]int, len(l.idents))
	torBack := make([]int32, 0, len(ips))
	idBack := make([]int32, 0, len(ips))
	l.ipTorrents = make([][]int32, nIPs)
	l.ipIdents = make([][]int32, nIPs)
	for ip := range nIPs {
		rows := order[starts[ip]:starts[ip+1]]
		lo := len(torBack)
		for _, j := range rows {
			torBack = append(torBack, tids[j])
		}
		torBack, l.ipTorrents[ip] = appendSet(torBack, lo)
		for _, ct := range l.ipTorrents[ip] {
			l.counts[ct]++
		}

		lo = len(idBack)
		for _, j := range rows {
			if id := l.owners[tids[j]]; id >= 0 {
				idBack = append(idBack, id)
			}
		}
		idBack, l.ipIdents[ip] = appendSet(idBack, lo)
		for _, id := range l.ipIdents[ip] {
			userDL[id]++
		}
	}
	for id, n := range userDL {
		l.userDL[l.idents[id]] = n
	}
}

// appendSet sorts and deduplicates back[lo:] in place, returning back
// cut to the set's end and the set capped at its length.
func appendSet(back []int32, lo int) ([]int32, []int32) {
	set := back[lo:]
	slices.Sort(set)
	back = back[:lo+len(slices.Compact(set))]
	return back, back[lo:len(back):len(back)]
}

// insertSorted adds v to the sorted set *s, reporting whether it was new.
func insertSorted(s *[]int32, v int32) bool {
	i, found := slices.BinarySearch(*s, v)
	if !found {
		*s = slices.Insert(*s, i, v)
	}
	return !found
}

// growTo lengthens s with empty sets to n entries.
func growTo(s [][]int32, n int) [][]int32 {
	if n <= len(s) {
		return s
	}
	return append(s, make([][]int32, n-len(s))...)
}

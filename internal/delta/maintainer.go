// Package delta maintains analysis snapshots over a live-appending lake
// incrementally. Where a from-scratch build (lake.Materialize, then
// analysis.New) re-reads and re-sorts the whole lake on every journal
// version bump — O(lake) work per refresh — the Maintainer asks the
// journal what changed (lake.ReadDiff) and folds only the added records
// and observations into the previous immutable snapshot: records and
// users merge-insert into the canonical orders, new observation rows
// sort and merge into the canonical columns (dataset.AdvanceObs), and
// the two O(observations) distinct-download aggregates are recounted
// only for the torrents and publishers the delta touched
// (classify.FactsSeed). Everything cheaper than
// O(observations) is rebuilt per refresh, which keeps the equivalence
// argument short: a maintained snapshot is observably identical —
// analysis fingerprint and served table bodies — to that from-scratch
// build at the same version, which the tests and the benchmark keep as
// their oracle.
//
// There is one build path. A compaction is a journal rewrite — the same
// rows in fewer files — and the lineage is keyed by canonical row
// position and lake torrent ID, not by file, so the Maintainer folds
// across it: a diff holding only rewrites folds as an empty delta, a
// new version with Changed empty. A content retirement in the diff
// (salvage, or a compaction that consumed rows added since the served
// version) invalidates positional state, as does a base version that
// left the journal; the Maintainer then folds the whole lake
// (lake.ReadAll) into an empty lineage through the same function — and
// the first build is exactly that too. Canonical order is total
// (dataset.Merge sorts stably; ties keep commit order), so duplicate
// record keys or usernames need no special case.
//
// Concurrency: Refresh calls are serialized by the Maintainer's lock and
// are the only code that touches the shared intern table's maps;
// published snapshots only ever read frozen slice data (see
// internal/dataset's delta contract), so serving older snapshots while a
// refresh runs is race-free.
package delta

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

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
}

// Maintainer owns a snapshot lineage over one lake.
type Maintainer struct {
	lk   *lake.Lake
	db   *geoip.DB
	topK int

	mu   sync.Mutex
	snap *Snapshot
	// lin is the positional state snap's dataset can be advanced with;
	// nil before the first build and after a failed fold, which both make
	// the next Refresh start over from the empty lineage.
	lin   *lineage
	stats Stats
}

// lineage is the state a fold carries from one snapshot to the next. It
// is in sync with exactly one canonical dataset: the intern table that
// dataset's store shares, its sorted-IP order, the lake→canonical ID
// map, the pending buffer and the distinct-download counters.
type lineage struct {
	lakeToCanon map[int]int32 // lake torrent ID → canonical torrent ID
	// pending buffers observations whose torrent record has not been
	// committed yet (a live campaign commits records after observations);
	// they are promoted the moment the record lands, and counted as
	// dropped until then — exactly what Materialize reports. Its intern
	// table is maintainer-private and append-only across refreshes.
	pending   dataset.DeltaObs
	sortedIPs []uint32       // canonical-IP order of the snapshot's table
	counts    []int          // distinct downloader IPs per canonical tid
	userDL    map[string]int // distinct downloader IPs per identity
}

// NewMaintainer creates a maintainer; db must be non-nil (analysis
// requires it), topK as in analysis.New.
func NewMaintainer(lk *lake.Lake, db *geoip.DB, topK int) *Maintainer {
	return &Maintainer{lk: lk, db: db, topK: topK}
}

// Snapshot returns the last published snapshot (nil before the first
// successful Refresh).
func (m *Maintainer) Snapshot() *Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snap
}

// Stats returns refresh counters.
func (m *Maintainer) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Refresh brings the snapshot to the lake's committed head: it folds the
// journal diff since the served version into the lineage when that diff
// is incremental (additions and neutral rewrites), and the whole lake
// into an empty lineage otherwise. It returns the current snapshot
// unchanged when the head hasn't moved.
func (m *Maintainer) Refresh(ctx context.Context) (*Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// restart says why the lineage cannot be advanced ("" = it can).
	var restart string
	var dd *lake.DiffData
	switch {
	case m.snap == nil:
		restart = "first build"
	case m.lin == nil:
		restart = fmt.Sprintf("the fold from v%d failed", m.snap.Version)
	default:
		var err error
		var vu *lake.VersionUnavailableError
		dd, err = m.lk.ReadDiff(ctx, m.snap.Version)
		switch {
		case errors.As(err, &vu):
			restart = fmt.Sprintf("base v%d unavailable: %s", m.snap.Version, vu.Reason)
		case err != nil:
			return nil, err
		case dd.Diff.To == m.snap.Version:
			return m.snap, nil
		case !dd.Diff.Incremental():
			restart = fmt.Sprintf("content retirement of %d segment(s) since v%d", len(dd.Diff.ContentRetired), m.snap.Version)
		}
	}
	prev := &dataset.Dataset{}
	if restart == "" {
		prev = m.snap.An.DS
	} else {
		var err error
		if dd, err = m.lk.ReadAll(ctx); err != nil {
			return nil, err
		}
		m.lin = &lineage{lakeToCanon: map[int]int32{}, userDL: map[string]int{}}
	}
	an, changed, err := m.lin.fold(prev, dd, m.db, m.topK)
	if err != nil {
		// The fold mutates the lineage as it goes; never advance from a
		// half-applied one.
		m.lin = nil
		return nil, err
	}
	snap := &Snapshot{An: an, Version: dd.Info.Version}
	if restart != "" {
		snap.Mode, snap.Reason, snap.ChangedAll = ModeFull, restart, true
		m.stats.FullRebuilds++
	} else {
		snap.Mode, snap.Changed = ModeDelta, changed
		snap.Reason = fmt.Sprintf("folded %d segment(s), %d row(s), %d record(s) from v%d to v%d",
			len(dd.Diff.AddedSegments), dd.Diff.AddedRows, len(dd.Torrents), dd.Diff.From, dd.Diff.To)
		snap.DeltaSegments, snap.DeltaObs = len(dd.Diff.AddedSegments), dd.Diff.AddedRows
		m.stats.DeltaRefreshes++
	}
	m.stats.LastMode, m.stats.LastReason = string(snap.Mode), snap.Reason
	m.stats.LastDeltaSegments, m.stats.LastDeltaObs = snap.DeltaSegments, snap.DeltaObs
	m.snap = snap
	return snap, nil
}

// fold advances the canonical dataset prev — which the lineage must be
// in sync with — by the records, users and observations in dd, and
// builds the analysis over the result. It returns the sorted publisher
// identities the fold touched. prev is left exactly as published; the
// lineage is mutated throughout, so the caller must drop it on error.
func (l *lineage) fold(prev *dataset.Dataset, dd *lake.DiffData, db *geoip.DB, topK int) (*analysis.Analysis, []string, error) {
	mergedRecs, remapOld, addIDs := dataset.MergeRecords(prev.Torrents, dd.Torrents)

	// Renumber the lake→canonical map, then register the new records.
	for k, v := range l.lakeToCanon {
		l.lakeToCanon[k] = remapOld[v]
	}
	for j, r := range dd.Torrents {
		l.lakeToCanon[r.TorrentID] = addIDs[j]
	}

	// Route rows: promote pending observations whose record just landed,
	// place the diff's rows, buffer the still-recordless remainder.
	var placed dataset.DeltaObs
	newPending := dataset.DeltaObs{Table: l.pending.Table}
	for i := 0; i < l.pending.Len(); i++ {
		lt := l.pending.Tids[i]
		if ct, ok := l.lakeToCanon[int(lt)]; ok {
			placed.Append(ct, l.pending.Table.String(l.pending.IPIdx[i]), l.pending.AtNs[i], l.pending.Seeder[i])
		} else {
			// Same table lineage: reuse the intern index directly.
			newPending.Tids = append(newPending.Tids, lt)
			newPending.IPIdx = append(newPending.IPIdx, l.pending.IPIdx[i])
			newPending.AtNs = append(newPending.AtNs, l.pending.AtNs[i])
			newPending.Seeder = append(newPending.Seeder, l.pending.Seeder[i])
		}
	}
	for i := 0; i < dd.Obs.Len(); i++ {
		lt := dd.Obs.TorrentID(i)
		ip := dd.Obs.IPs().String(dd.Obs.IPIndex(i))
		if ct, ok := l.lakeToCanon[lt]; ok {
			placed.Append(ct, ip, dd.Obs.UnixNano(i), dd.Obs.Seeder(i))
		} else {
			newPending.Append(int32(lt), ip, dd.Obs.UnixNano(i), dd.Obs.Seeder(i))
		}
	}

	ds := &dataset.Dataset{
		Name: dd.Info.Name, Start: dd.Info.Start, End: dd.Info.End,
		Torrents:            mergedRecs,
		Users:               dataset.MergeUsers(prev.Users, dd.Users),
		DroppedObservations: newPending.Len() + int(dd.Info.Dropped),
	}
	l.sortedIPs = dataset.AdvanceObs(&ds.Obs, &prev.Obs, remapOld, &placed, l.sortedIPs)
	l.pending = newPending

	// Recount distinct downloads only where the fold landed: the touched
	// torrents, and every identity owning a touched torrent or a new
	// record. Untouched counters carry over (renumbered).
	counts := make([]int, len(mergedRecs))
	for oldID, c := range l.counts {
		counts[remapOld[oldID]] = c
	}
	l.counts = counts
	ix := ds.Obs.Index()
	stamp := make([]int32, ds.Obs.IPs().Len())
	for i := range stamp {
		stamp[i] = -1
	}
	epoch := int32(0)
	distinct := func(tids ...int32) int {
		mark, n := epoch, 0
		epoch++
		for _, tid := range tids {
			for _, oi := range ix.Span(int(tid)) {
				if ip := ds.Obs.IPIndex(int(oi)); stamp[ip] != mark {
					stamp[ip] = mark
					n++
				}
			}
		}
		return n
	}
	touched := make([]bool, len(mergedRecs))
	for _, t := range placed.Tids {
		touched[t] = true
	}
	for _, id := range addIDs {
		touched[id] = true
	}
	affected := make(map[string][]int32) // identity → every torrent it owns
	for tid, rec := range mergedRecs {
		if !touched[tid] {
			continue
		}
		counts[tid] = distinct(int32(tid))
		if name := rec.PublisherKey(); name != "" {
			affected[name] = nil
		}
	}
	for _, rec := range mergedRecs {
		name := rec.PublisherKey()
		if _, ok := affected[name]; ok && name != "" {
			affected[name] = append(affected[name], int32(rec.TorrentID))
		}
	}
	changed := make([]string, 0, len(affected))
	for name, tids := range affected {
		l.userDL[name] = distinct(tids...)
		changed = append(changed, name)
	}
	slices.Sort(changed)

	seed := &classify.FactsSeed{DownloadsByTorrent: counts, UserDownloads: l.userDL}
	an, err := analysis.NewSeeded(ds, db, topK, seed)
	return an, changed, err
}

// Journal diffs: what changed between two committed versions. The delta
// subsystem (internal/delta) asks the lake this question on every
// refresh. A range the snapshot can fold — every observation and record
// present at From still present at To — is advanced by reading only the
// rows the range added; a content retirement makes it fold the whole
// lake (ReadAll) from the empty snapshot instead.
//
// Compaction is not a content retirement. Its journal record is a
// rewrite: the output holds exactly the victims' rows, re-sorted. A
// rewrite whose victims were all present at From is neutral — its rows
// are already in the snapshot, so the diff neither counts nor reads
// them. What does force the rebuild is a retirement without the rewrite
// flag (salvage drops rows) or a rewrite that consumed a segment added
// inside the range (its fresh rows now sit inside the output, mixed with
// old ones). DiffVersions answers from the replayed journal history
// alone; ReadDiff additionally loads the added rows under one scan lock,
// so the segments it reads can never be vacuumed mid-read, and cuts the
// added records from the lake's in-memory lists: the records a version
// range added are the entries between its two versions' counts.
package lake

import (
	"context"
	"slices"
	"time"

	"btpub/internal/dataset"
)

// Diff summarizes the journal records with from < version <= to.
type Diff struct {
	From uint64 `json:"from"`
	To   uint64 `json:"to"`
	// AddedSegments lists segments committed in the range, in commit
	// order. RetiredSegments lists segments any commit in the range
	// removed (compaction folds, salvage drops). Both are the literal
	// file deltas, rewrites included.
	AddedSegments   []string `json:"added_segments,omitempty"`
	RetiredSegments []string `json:"retired_segments,omitempty"`
	// ContentRetired lists the retired segments whose commit the
	// snapshot cannot fold across: a retirement not marked as a rewrite,
	// or a rewrite that consumed a segment added inside the range. The
	// neutral rewrites' victims are in RetiredSegments only.
	ContentRetired []string `json:"content_retired,omitempty"`
	// AddedRows is the total observation count of the segments that
	// non-rewrite commits added — the rows new since From.
	AddedRows int64 `json:"added_rows"`
}

// Incremental reports whether the range can be folded: every
// observation and record present at From is still present, untouched,
// at To. This is exactly the condition under which a snapshot built at
// From can be advanced to To by merging in only the rows new since From.
func (d *Diff) Incremental() bool { return len(d.ContentRetired) == 0 }

// VersionInfo is the scalar committed state at one version — the
// manifest fields an analysis snapshot stamps into its dataset.
type VersionInfo struct {
	Version  uint64    `json:"version"`
	Name     string    `json:"name,omitempty"`
	Start    time.Time `json:"start,omitempty"`
	End      time.Time `json:"end,omitempty"`
	Rows     int64     `json:"rows"`
	Torrents int       `json:"torrents"`
	Users    int       `json:"users"`
	Dropped  int64     `json:"dropped"`
	Segments int       `json:"segments"`
}

func versionInfo(m *manifest) VersionInfo {
	return VersionInfo{
		Version: m.Version, Name: m.Name, Start: m.Start, End: m.End,
		Rows: m.Rows, Torrents: m.Torrents, Users: m.Users,
		Dropped: m.Dropped, Segments: len(m.Segments),
	}
}

// DiffVersions reports what changed between two committed versions
// (to = 0 means the current head). Both versions must be committed;
// otherwise a *VersionUnavailableError explains which side failed, and
// the caller's only correct move is a full rebuild.
func (lk *Lake) DiffVersions(from, to uint64) (*Diff, error) {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	d, _, err := lk.diffLocked(from, to)
	return d, err
}

// diffLocked computes the diff and collects the manifest entries of the
// segments non-rewrite commits added (for readers that want the new
// rows). Callers hold mu.
func (lk *Lake) diffLocked(from, to uint64) (*Diff, []segMeta, error) {
	head := lk.man.Version
	if to == 0 {
		to = head
	}
	if to > head {
		return nil, nil, &VersionUnavailableError{Version: to, Head: head, Reason: "not committed yet"}
	}
	if from > to {
		return nil, nil, &VersionUnavailableError{Version: from, Head: head, Reason: "newer than the diff target"}
	}
	if from == 0 {
		// Version 0 is "nothing committed yet", not a state a snapshot
		// can be advanced from.
		return nil, nil, &VersionUnavailableError{Version: from, Head: head, Reason: "nothing is committed at version 0"}
	}
	d := &Diff{From: from, To: to}
	var added []segMeta
	fresh := map[string]bool{} // segments non-rewrite commits added in the range
	for _, pay := range lk.hist[from:to] {
		neutral := pay.Rewrite
		for _, f := range pay.RetireSegments {
			neutral = neutral && !fresh[f]
		}
		if !neutral {
			d.ContentRetired = append(d.ContentRetired, pay.RetireSegments...)
		}
		d.RetiredSegments = append(d.RetiredSegments, pay.RetireSegments...)
		for _, s := range pay.AddSegments {
			d.AddedSegments = append(d.AddedSegments, s.File)
			if !pay.Rewrite {
				fresh[s.File] = true
				d.AddedRows += int64(s.Rows)
				added = append(added, s)
			}
		}
	}
	return d, added, nil
}

// DiffData is ReadDiff's payload: the diff, the scalar state at its To
// version, and — when the range is incremental — the added records and
// the observations new since From (commit order, own intern table).
// Torrents and Users are shared with the lake and every other reader,
// read-only and capped at their length; Obs is the caller's.
type DiffData struct {
	Diff Diff
	Info VersionInfo

	Torrents []*dataset.TorrentRecord
	Users    []dataset.UserRecord
	Obs      dataset.ObsStore
}

// ReadDiff computes the diff from a committed version to the head and,
// when the range is incremental, returns the records committed in the
// range and reads the segments non-rewrite commits added under the same
// scan lock — the returned rows are exactly the observations appended
// between the two versions. When the diff shows a content retirement,
// DiffData carries the diff and version info only (Incremental() is the
// caller's signal to rebuild from scratch). A *VersionUnavailableError means the base
// version is not advanceable at all.
func (lk *Lake) ReadDiff(ctx context.Context, from uint64) (*DiffData, error) {
	lk.scanMu.RLock()
	defer lk.scanMu.RUnlock()

	lk.mu.Lock()
	d, added, err := lk.diffLocked(from, 0)
	if err != nil {
		lk.mu.Unlock()
		return nil, err
	}
	out := &DiffData{Diff: *d, Info: versionInfo(lk.man)}
	if !d.Incremental() {
		lk.mu.Unlock()
		return out, nil
	}
	base := lk.hist[from-1]
	out.Torrents = lk.torrents[base.Torrents:lk.man.Torrents:lk.man.Torrents]
	out.Users = lk.users[base.Users:lk.man.Users:lk.man.Users]
	lk.mu.Unlock()
	// Incremental range: every segment a non-rewrite commit added is
	// still live in the head manifest (only a content retirement can
	// consume one), and scanMu.R blocks vacuum, so the files cannot
	// disappear mid-read.
	if err := lk.readSegsLocked(ctx, added, &out.Obs); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadAll reads the entire committed head state in the DiffData shape —
// the diff from the empty lake, which the incremental maintainer folds
// when it has to start over. Unlike Materialize it
// returns raw, unmerged records and observations (lake torrent IDs, own
// intern table), so the caller controls record matching and keeps the
// rows whose records have not been committed yet. Its records are all
// the committed ones, shared read-only as in ReadDiff.
func (lk *Lake) ReadAll(ctx context.Context) (*DiffData, error) {
	lk.scanMu.RLock()
	defer lk.scanMu.RUnlock()

	lk.mu.Lock()
	info := versionInfo(lk.man)
	segs := append([]segMeta(nil), lk.man.Segments...)
	out := &DiffData{Diff: Diff{To: info.Version}, Info: info,
		Torrents: slices.Clip(lk.torrents), Users: slices.Clip(lk.users)}
	lk.mu.Unlock()

	if err := lk.readSegsLocked(ctx, segs, &out.Obs); err != nil {
		return nil, err
	}
	for _, s := range segs {
		out.Diff.AddedSegments = append(out.Diff.AddedSegments, s.File)
		out.Diff.AddedRows += int64(s.Rows)
	}
	return out, nil
}

// readSegsLocked loads segments' rows into out, in the order given.
// Callers hold scanMu.R.
func (lk *Lake) readSegsLocked(ctx context.Context, segs []segMeta, out *dataset.ObsStore) error {
	for _, sm := range segs {
		if err := ctx.Err(); err != nil {
			return err
		}
		seg, err := lk.readSegment(sm)
		if err != nil {
			return err
		}
		appendSegRows(out, seg, nil)
	}
	return nil
}

// Journal diffs: what changed between two committed versions. The delta
// subsystem (internal/delta) asks the lake this question on every
// refresh — a purely additive range (segments and meta files appended,
// nothing retired) can be folded into the previous analysis snapshot
// incrementally, while any retirement (compaction, salvage) invalidates
// positional state and makes it fold the whole lake (ReadAll) from the
// empty snapshot instead. DiffVersions answers from
// the replayed journal history alone; ReadDiff additionally loads the
// added rows and records under one scan lock, so the files it returns
// can never be vacuumed mid-read.
package lake

import (
	"context"
	"time"

	"btpub/internal/dataset"
)

// Diff summarizes the journal records with from < version <= to.
type Diff struct {
	From uint64 `json:"from"`
	To   uint64 `json:"to"`
	// AddedSegments / AddedMeta list files committed in the range, in
	// commit order. RetiredSegments lists segments any commit in the
	// range removed (compaction folds, salvage drops).
	AddedSegments   []string `json:"added_segments,omitempty"`
	RetiredSegments []string `json:"retired_segments,omitempty"`
	AddedMeta       []string `json:"added_meta,omitempty"`
	// AddedRows is the total observation count of the added segments.
	AddedRows int64 `json:"added_rows"`
}

// Incremental reports whether the range is purely additive: every
// observation and record present at From is still present, untouched,
// at To. This is exactly the condition under which a snapshot built at
// From can be advanced to To by merging in only the added files.
func (d *Diff) Incremental() bool { return len(d.RetiredSegments) == 0 }

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

// diffLocked computes the diff and collects the added segments' manifest
// entries (for readers that want the rows). Callers hold mu.
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
	for _, pay := range lk.hist[from:to] {
		for _, s := range pay.AddSegments {
			d.AddedSegments = append(d.AddedSegments, s.File)
			d.AddedRows += int64(s.Rows)
			added = append(added, s)
		}
		d.RetiredSegments = append(d.RetiredSegments, pay.RetireSegments...)
		d.AddedMeta = append(d.AddedMeta, pay.AddMeta...)
	}
	return d, added, nil
}

// DiffData is ReadDiff's payload: the diff, the scalar state at its To
// version, and — when the range is incremental — the added meta records
// and the added segments' observations (commit order, own intern table).
type DiffData struct {
	Diff Diff
	Info VersionInfo

	Torrents []*dataset.TorrentRecord
	Users    []dataset.UserRecord
	Obs      dataset.ObsStore
}

// ReadDiff computes the diff from a committed version to the head and,
// when the range is purely additive, reads the added files under the
// same scan lock — the returned rows are exactly the observations
// appended between the two versions. When the diff shows retirements,
// DiffData carries the diff and version info only (Incremental() is the
// caller's signal to rebuild from scratch). A *VersionUnavailableError
// means the base version is not advanceable at all.
func (lk *Lake) ReadDiff(ctx context.Context, from uint64) (*DiffData, error) {
	lk.scanMu.RLock()
	defer lk.scanMu.RUnlock()

	lk.mu.Lock()
	d, added, err := lk.diffLocked(from, 0)
	if err != nil {
		lk.mu.Unlock()
		return nil, err
	}
	info := versionInfo(lk.man)
	lk.mu.Unlock()

	out := &DiffData{Diff: *d, Info: info}
	if !d.Incremental() {
		return out, nil
	}
	// Purely additive range: every added segment is still live in the
	// head manifest (a retirement would have shown in the diff), and
	// scanMu.R blocks vacuum, so the files cannot disappear mid-read.
	// Meta files are never retired at all.
	if err := lk.readIntoLocked(ctx, d.AddedMeta, added, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadAll reads the entire committed head state in the DiffData shape —
// the diff from the empty lake, which the incremental maintainer folds
// when it has to start over. Unlike Materialize it
// returns raw, unmerged records and observations (lake torrent IDs, own
// intern table), so the caller controls record matching and keeps the
// rows whose records have not been committed yet.
func (lk *Lake) ReadAll(ctx context.Context) (*DiffData, error) {
	lk.scanMu.RLock()
	defer lk.scanMu.RUnlock()

	lk.mu.Lock()
	info := versionInfo(lk.man)
	meta := append([]string(nil), lk.man.Meta...)
	segs := append([]segMeta(nil), lk.man.Segments...)
	lk.mu.Unlock()

	out := &DiffData{Diff: Diff{To: info.Version}, Info: info}
	err := lk.readIntoLocked(ctx, meta, segs, out)
	if err != nil {
		return nil, err
	}
	for _, s := range segs {
		out.Diff.AddedSegments = append(out.Diff.AddedSegments, s.File)
		out.Diff.AddedRows += int64(s.Rows)
	}
	out.Diff.AddedMeta = meta
	return out, nil
}

// readIntoLocked loads meta files and segments into out, in the order
// given. Callers hold scanMu.R.
func (lk *Lake) readIntoLocked(ctx context.Context, meta []string, segs []segMeta, out *DiffData) error {
	var err error
	if out.Torrents, out.Users, err = lk.readMetaLocked(meta); err != nil {
		return err
	}
	for _, sm := range segs {
		if err := ctx.Err(); err != nil {
			return err
		}
		seg, err := lk.readSegment(sm)
		if err != nil {
			return err
		}
		appendSegRows(&out.Obs, seg, nil)
	}
	return nil
}

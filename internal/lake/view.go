// Time travel: a View is a read-only handle on the lake pinned to one
// committed journal version. OpenAt resolves the version once (folding
// the journal history from the nearest checkpoint) and fails fast when
// the version predates the journal or its segments have been vacuumed;
// the View's scans then run against that frozen state while ingest and
// compaction continue on the live lake. Predicate.AsOf is the one-shot
// equivalent for a single scan.
package lake

import (
	"context"
	"fmt"

	"btpub/internal/dataset"
)

// VersionUnavailableError reports a pinned version the lake cannot
// serve: never committed, older than the journal's opening checkpoint,
// or referencing segments a post-compaction vacuum already deleted.
type VersionUnavailableError struct {
	Version uint64
	Head    uint64
	Reason  string
}

func (e *VersionUnavailableError) Error() string {
	return fmt.Sprintf("lake: version %d unavailable (head %d): %s", e.Version, e.Head, e.Reason)
}

// View is a read-only handle pinned to one committed version.
type View struct {
	lk  *Lake
	man *manifest
}

// OpenAt pins a read handle to the state committed at version (0 = the
// current head). The pin is resolved eagerly; the returned View stays
// readable for the lake handle's lifetime unless compaction vacuums the
// version's segments in the meantime (Options.Retain prevents that).
func (lk *Lake) OpenAt(version uint64) (*View, error) {
	lk.scanMu.RLock()
	defer lk.scanMu.RUnlock()
	man, err := lk.pinned(version)
	if err != nil {
		return nil, err
	}
	return &View{lk: lk, man: man}, nil
}

// Version returns the version the view is pinned to.
func (v *View) Version() uint64 { return v.man.Version }

// Stats summarises the pinned state. Scan counters and journal totals
// are handle-wide, so they are zero here.
func (v *View) Stats() Stats {
	st := Stats{
		Name: v.man.Name, Start: v.man.Start, End: v.man.End,
		Version: v.man.Version, Segments: len(v.man.Segments),
		Observations: v.man.Rows, Torrents: v.man.Torrents, Users: v.man.Users,
		Dropped: v.man.Dropped,
	}
	for _, s := range v.man.Segments {
		st.TotalBytes += s.Bytes
	}
	return st
}

// Scan streams the pinned version's rows matching pred, like Lake.Scan.
func (v *View) Scan(ctx context.Context, pred Predicate, fn func(*Batch) error) error {
	return v.ScanWorkers(ctx, pred, 1, func(_ int, b *Batch) error { return fn(b) })
}

// ScanWorkers is Lake.ScanWorkers against the pinned version.
func (v *View) ScanWorkers(ctx context.Context, pred Predicate, workers int, fn func(int, *Batch) error) error {
	v.lk.scanMu.RLock()
	defer v.lk.scanMu.RUnlock()
	return v.lk.scanManifest(ctx, v.man, pred, workers, fn)
}

// Materialize reads the pinned version back into one canonical dataset,
// like Lake.Materialize.
func (v *View) Materialize(ctx context.Context, pred Predicate) (*dataset.Dataset, error) {
	pred.AsOf = v.man.Version
	ds, _, err := v.lk.MaterializeVersion(ctx, pred)
	return ds, err
}

// TorrentRecords reads the torrent and user records committed as of the
// pinned version.
func (v *View) TorrentRecords() ([]*dataset.TorrentRecord, []dataset.UserRecord, error) {
	return v.lk.TorrentRecordsAsOf(v.man.Version)
}

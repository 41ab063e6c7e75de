// Compaction folds small segments into big ones so a long-lived lake's
// segment count stays bounded and scans stay cheap. Victim rows are
// merged into one builder and sorted by dataset.ObsStore.SortCanonical —
// the same (At, TorrentID, IP, Seeder) order dataset.Merge establishes —
// so a compacted lake materializes identically to an uncompacted one.
// Each fold commits one journal record retiring the victims and adding
// the output, marked as a rewrite: it changes which files hold the rows,
// never which rows there are, so the snapshot maintainer (internal/delta)
// folds across it instead of rebuilding (see diff.go). The old files are
// physically deleted only when no scan holds them open (and never under
// Options.Retain, which keeps pre-compaction versions scannable).
package lake

import (
	"fmt"
)

// CompactOptions tunes the compactor.
type CompactOptions struct {
	// Auto runs compaction in the background after a flush leaves at
	// least MinSegments undersized segments.
	Auto bool
	// MinSegments is the trigger count (default 8).
	MinSegments int
	// TargetRows is the size a segment must stay under to be a victim,
	// and roughly the size of compacted output (default 1<<20).
	TargetRows int
}

func (o *CompactOptions) setDefaults() {
	if o.MinSegments <= 0 {
		o.MinSegments = 8
	}
	if o.TargetRows <= 0 {
		o.TargetRows = 1 << 20
	}
}

// compactEligibleLocked reports whether enough undersized segments exist.
func (lk *Lake) compactEligibleLocked() bool {
	small := 0
	for _, s := range lk.man.Segments {
		if s.Rows < lk.opt.Compact.TargetRows {
			small++
		}
	}
	return small >= lk.opt.Compact.MinSegments
}

// startCompactLocked launches one background compaction if none is
// running. Callers hold mu.
func (lk *Lake) startCompactLocked() {
	if !lk.compacting.CompareAndSwap(false, true) {
		return
	}
	lk.wg.Add(1)
	go func() {
		defer lk.wg.Done()
		defer lk.compacting.Store(false)
		_ = lk.compact()
	}()
}

// Compact synchronously folds every undersized committed segment into
// canonical-order output segments. Concurrent scans keep reading the old
// segments until they finish; the files are deleted afterwards.
func (lk *Lake) Compact() error {
	if !lk.compacting.CompareAndSwap(false, true) {
		return nil // a background run is already underway
	}
	defer lk.compacting.Store(false)
	return lk.compact()
}

func (lk *Lake) compact() error {
	// Snapshot the victims. Committed segments are immutable, so reading
	// them outside mu is safe; only the manifest splice needs the lock.
	lk.mu.Lock()
	if lk.closed {
		lk.mu.Unlock()
		return errClosed
	}
	var victims []segMeta
	for _, s := range lk.man.Segments {
		if s.Rows < lk.opt.Compact.TargetRows {
			victims = append(victims, s)
		}
	}
	if len(victims) < 2 {
		lk.mu.Unlock()
		return nil
	}
	lk.mu.Unlock()

	// Merge victim rows into one canonical-order builder. scanMu.R keeps
	// vacuum (file deletion) out while the victim files are read.
	lk.scanMu.RLock()
	merged := newBuilder()
	st := &merged.store
	for _, sm := range victims {
		d, err := lk.readSegment(sm)
		if err != nil {
			lk.scanMu.RUnlock()
			return fmt.Errorf("lake: compact: %w", err)
		}
		appendSegRows(st, d, nil)
	}
	lk.scanMu.RUnlock()
	for i := 0; i < st.Len(); i++ {
		merged.zone.add(int32(st.TorrentID(i)), st.UnixNano(i))
	}
	st.SortCanonical()

	// Write the compacted segment, then commit the fold as one journal
	// record retiring the victims and adding the output, all under mu.
	lk.mu.Lock()
	defer lk.mu.Unlock()
	if lk.closed {
		return errClosed
	}
	next := lk.man.clone()
	name := fmt.Sprintf("seg-%06d.obs", next.NextSeq)
	next.NextSeq++
	buf := encodeSegment(st, merged.zone)
	if err := lk.writeFileSync(name, buf); err != nil {
		return err
	}
	gone := make(map[string]bool, len(victims))
	pay := &commitPayload{Rewrite: true}
	for _, v := range victims {
		gone[v.File] = true
		pay.RetireSegments = append(pay.RetireSegments, v.File)
	}
	keep := next.Segments[:0:0]
	for _, s := range next.Segments {
		if !gone[s.File] {
			keep = append(keep, s)
		}
	}
	out := segMeta{File: name, Bytes: int64(len(buf)), zone: merged.zone}
	next.Segments = append(keep, out)
	pay.AddSegments = append(pay.AddSegments, out)
	next.Version++
	if err := lk.commitLocked(next, pay); err != nil {
		return err
	}
	// With Retain set the victim files stay on disk, so versions that
	// predate the fold remain scannable through as_of.
	if lk.opt.Retain {
		return nil
	}
	// Retire in victim order (not map order) so file deletion — and with
	// it the lake's whole fs-operation sequence — is deterministic, which
	// the fault-injection kill-point tests replay against.
	for _, v := range victims {
		lk.dead = append(lk.dead, v.File)
	}
	lk.tryVacuumLocked()
	return nil
}

// tryVacuumLocked deletes retired files if no scan is active right now;
// otherwise they wait for the next opportunity (or Close). Callers hold
// mu.
func (lk *Lake) tryVacuumLocked() {
	if len(lk.dead) == 0 {
		return
	}
	if !lk.scanMu.TryLock() {
		return
	}
	lk.deleteDeadLocked()
	lk.scanMu.Unlock()
}

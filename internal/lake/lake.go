// Package lake is the persistent, append-only observation store — the
// on-disk successor to holding a whole dataset.Dataset in memory. Writers
// (campaign runs, live crawlers, JSONL imports) append observations one
// row at a time through one path into an open columnar builder that is
// sealed into immutable segment files (zone maps + sorted dictionaries
// that double as the segment's index + delta-compressed columns + CRC
// footers, see segment.go). A lake directory holds those segment files
// and the source of truth, an append-only commit journal
// (internal/lake/journal and commits.go): every flush, import,
// compaction or salvage appends one fsynced, CRC- and chain-protected
// record — one record per version, so record v is version v — and Open
// replays the journal to head. Torrent and user records ride inside the
// journal record of the commit that adds them, so Open decodes them with
// the history and each flush appends its own: the lake holds every
// committed record in memory once and readers share them read-only. A
// torrent ID is reserved the moment the lake accepts a record or a row
// naming it: NextTorrentID moves past it then, not at the flush, so no
// import base can hand it out again. Any committed
// version remains addressable: Predicate.AsOf and TorrentRecords pin
// reads to historical states while ingest continues. Readers scan
// committed segments with predicate pushdown (see scan.go) while a compactor
// folds small segments together in canonical Merge order (see
// compact.go), committing each fold as a retire+add record. One process
// owns a lake directory at a time; within that process every method is
// safe for concurrent use.
package lake

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/netip"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"btpub/internal/dataset"
	"btpub/internal/lake/journal"
	"btpub/internal/vfs"
)

// Options tunes a lake handle.
type Options struct {
	// FlushRows seals the open builder into a segment once it holds this
	// many observations (default 1<<17). Small values produce many small
	// segments — correct, just compaction fodder.
	FlushRows int
	// Compact configures the background compactor.
	Compact CompactOptions
	// Salvage lets Open drop segments whose files are missing or
	// truncated (logged, removed from the manifest) instead of failing.
	// Data in the dropped segments is lost; everything else stays
	// readable.
	Salvage bool
	// Retain keeps files retired by compaction on disk instead of
	// vacuuming them, so as_of reads of pre-compaction versions
	// keep working. Off by default: history remains queryable back to
	// the last compaction, and older pins fail with
	// *VersionUnavailableError.
	Retain bool
	// FS overrides the filesystem the lake does all its I/O through.
	// Nil means the real OS filesystem rooted at the lake directory;
	// tests substitute vfs/faultfs to inject I/O errors, torn writes and
	// crashes deterministically.
	FS vfs.FS
}

func (o *Options) setDefaults() {
	if o.FlushRows <= 0 {
		o.FlushRows = 1 << 17
	}
	o.Compact.setDefaults()
}

// builder is the open, mutable segment.
type builder struct {
	store dataset.ObsStore
	zone  zone
}

// Lake is a handle on one lake directory.
type Lake struct {
	dir string
	fs  vfs.FS
	opt Options

	// mu guards the live state, the journal, the open builder, the
	// pending and committed records and commit sequencing.
	mu      sync.Mutex
	man     *manifest
	jr      *journal.Journal
	hist    []*commitPayload // hist[v-1] is version v's record, for time travel
	bld     *builder
	pendT   []*dataset.TorrentRecord
	pendU   []dataset.UserRecord
	dead    []string // retired by compaction, deleted once no scan is active
	closed  bool
	lastErr error
	// torrents and users are every committed record in commit order:
	// decoded from the journal at Open, extended by each commit. Records
	// are never retired and each version's counts are absolute, so
	// version v's records are the first hist[v-1].Torrents (and Users)
	// entries. Readers get slices capped at their length and share the
	// records read-only.
	torrents []*dataset.TorrentRecord
	users    []dataset.UserRecord
	// tids holds the torrent ID of every committed and pending record: a
	// second record under one ID is refused (claimLocked).
	tids map[int]bool

	// scanMu: readers hold RLock while touching committed files; vacuum
	// takes Lock to delete retired ones, so a scan never sees a file
	// disappear mid-read.
	scanMu sync.RWMutex

	compacting atomic.Bool
	wg         sync.WaitGroup

	// postCache memoizes segments' postings by file name. Segment files
	// are immutable once committed, so entries never go stale; retired
	// files are evicted when they are vacuumed.
	postCache sync.Map // segment file name -> *postings

	segsRead       atomic.Int64
	segsSkipped    atomic.Int64
	segsSkippedIdx atomic.Int64
}

// Open opens (or creates) the lake in dir. Crash recovery happens here:
// a torn journal tail is repaired (a crash mid-append can only lose the
// record being written, never a committed one), the journal is replayed
// into the live state and the records the handle serves from then on,
// segment files not referenced by committed state are deleted, and every
// referenced segment is size-checked against its entry (Options.Salvage
// turns a failing segment into a logged drop — committed as a retire
// record — instead of an error).
func Open(dir string, opt Options) (*Lake, error) {
	opt.setDefaults()
	fsys := opt.FS
	if fsys == nil {
		fsys = vfs.OS(dir)
	}
	if err := fsys.MkdirAll(); err != nil {
		return nil, err
	}
	jr, err := journal.Open(fsys, journal.Name)
	if err != nil {
		return nil, err
	}
	if jr.Len() == 0 {
		// A pre-journal lake (one MANIFEST file as its source of truth)
		// would read as empty and lose every segment to the orphan sweep
		// below; refuse it instead.
		if _, err := fsys.Size("MANIFEST"); err == nil {
			return nil, fmt.Errorf("lake: %s holds a pre-journal MANIFEST, which this build no longer reads", dir)
		}
	}
	hist, man, err := decodeHist(jr.Records())
	if err != nil {
		return nil, err
	}
	// Validate referenced segments before touching anything else.
	var keep []segMeta
	var retire []string
	for _, s := range man.Segments {
		sz, err := fsys.Size(s.File)
		switch {
		case err == nil && sz == s.Bytes:
			keep = append(keep, s)
			continue
		case err == nil:
			err = &CorruptSegmentError{File: s.File, Reason: fmt.Sprintf("size %d, manifest says %d", sz, s.Bytes)}
		case os.IsNotExist(err):
			err = &CorruptSegmentError{File: s.File, Reason: "missing"}
		}
		if !opt.Salvage {
			return nil, err
		}
		log.Printf("lake: salvage: dropping segment %s (%v, %d observations lost)", s.File, err, s.Rows)
		man.Rows -= int64(s.Rows)
		retire = append(retire, s.File)
	}
	man.Segments = keep
	torrents, users := takeRecords(hist)
	// Remove segments a crash orphaned (written but never committed) and
	// any leftover tmp files. Only files this package names are touched;
	// with Retain set, segments any journal record ever added survive so
	// historical versions stay scannable.
	names, err := fsys.ReadDir()
	if err != nil {
		return nil, err
	}
	referenced := man.files()
	if opt.Retain {
		referenced = histFiles(hist)
	}
	for _, name := range names {
		if isLakeFile(name) && !referenced[name] {
			_ = fsys.Remove(name)
		}
	}
	lk := &Lake{dir: dir, fs: fsys, opt: opt, man: man, bld: newBuilder(), jr: jr, hist: hist,
		torrents: torrents, users: users, tids: make(map[int]bool, len(torrents))}
	for _, t := range torrents {
		lk.tids[t.TorrentID] = true
	}
	if len(retire) > 0 {
		next := lk.man // Open owns the state; no clone needed yet
		next.Version++
		if err := lk.commitLocked(next, &commitPayload{RetireSegments: retire}); err != nil {
			return nil, err
		}
	}
	return lk, nil
}

func newBuilder() *builder { return &builder{zone: emptyZone()} }

// Close flushes pending state, waits for background compaction and
// deletes files retired by it.
func (lk *Lake) Close() error {
	lk.mu.Lock()
	if lk.closed {
		lk.mu.Unlock()
		return lk.lastErr
	}
	err := lk.flushLocked(false)
	lk.closed = true
	lk.mu.Unlock()
	lk.wg.Wait()
	lk.scanMu.Lock()
	lk.mu.Lock()
	lk.deleteDeadLocked()
	lk.mu.Unlock()
	lk.scanMu.Unlock()
	return err
}

var errClosed = errors.New("lake: closed")

// Version returns the journal head version; it increases on every flush,
// import and compaction, so cached readers can cheaply detect staleness,
// and any value it ever returned can be pinned with Predicate.AsOf
// (subject to vacuuming, see Options.Retain).
func (lk *Lake) Version() uint64 {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	return lk.man.Version
}

// NextTorrentID returns one past the highest torrent ID the lake has
// reserved. An ID is reserved the moment the lake accepts it — a record
// from AddTorrents or ImportDataset, a row from Append, AppendAddr or
// ImportDataset — whether or not it is flushed yet, and stays reserved
// across reopens. It is the base a live writer offsets its local IDs by.
func (lk *Lake) NextTorrentID() int {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	return int(lk.man.NextTID)
}

// Stats is a point-in-time summary of committed lake state.
type Stats struct {
	Name  string    `json:"name"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Version is the journal head version; Commits the number of journal
	// records Open replays, one per version, so it equals Version;
	// TotalBytes the on-disk footprint of live segments and the journal,
	// which holds the torrent and user records.
	Version    uint64 `json:"version"`
	Commits    int64  `json:"commits"`
	TotalBytes int64  `json:"total_bytes"`

	Segments     int   `json:"segments"`
	Observations int64 `json:"observations"`
	Torrents     int   `json:"torrents"`
	Users        int   `json:"users"`
	Dropped      int64 `json:"dropped"`
	// SegmentsRead / SegmentsSkipped / SegmentsSkippedPostings are
	// cumulative scan pushdown counters for this handle: Skipped counts
	// segments pruned by zone maps alone, SkippedPostings counts
	// zone-admitted segments whose postings proved key-free before a row
	// was decoded.
	SegmentsRead            int64 `json:"segments_read"`
	SegmentsSkipped         int64 `json:"segments_skipped"`
	SegmentsSkippedPostings int64 `json:"segments_skipped_postings"`
}

// Stats snapshots the committed state.
func (lk *Lake) Stats() Stats {
	lk.mu.Lock()
	m := lk.man
	st := Stats{
		Name: m.Name, Start: m.Start, End: m.End,
		Version: m.Version, Segments: len(m.Segments),
		Observations: m.Rows, Torrents: m.Torrents, Users: m.Users,
		Dropped:    m.Dropped,
		Commits:    int64(lk.jr.Len()),
		TotalBytes: lk.jr.Size(),
	}
	for _, s := range m.Segments {
		st.TotalBytes += s.Bytes
	}
	lk.mu.Unlock()
	st.SegmentsRead = lk.segsRead.Load()
	st.SegmentsSkipped = lk.segsSkipped.Load()
	st.SegmentsSkippedPostings = lk.segsSkippedIdx.Load()
	return st
}

// ---------------------------------------------------------------------
// Writer API
// ---------------------------------------------------------------------

// Append adds one observation through the lake's one row path
// (appendRow). An out-of-range torrent ID or a timestamp outside the
// unix-nanosecond range (years 1678-2261) is refused with an error, and
// the lake keeps nothing from the call.
func (lk *Lake) Append(o dataset.Observation) error {
	atNs, err := dataset.UnixNano(o.At)
	if err != nil {
		return fmt.Errorf("lake: %w", err)
	}
	return lk.appendRow(o.TorrentID, atNs, o.Seeder, func(ips *dataset.IPTable) uint32 { return ips.InternString(o.IP) })
}

// AppendAddr is the zero-alloc-on-repeat live-crawl path: the address
// string is computed only the first time this builder sees it. It
// refuses what Append refuses.
func (lk *Lake) AppendAddr(tid int, addr netip.Addr, at time.Time, seeder bool) error {
	atNs, err := dataset.UnixNano(at)
	if err != nil {
		return fmt.Errorf("lake: %w", err)
	}
	return lk.appendRow(tid, atNs, seeder, func(ips *dataset.IPTable) uint32 { return ips.InternAddr(addr) })
}

// appendRow is the one way an observation enters the lake — Append,
// AppendAddr and ImportDataset all call it. Under mu it puts the row in
// the open builder, interning its address with intern, extends the
// builder's zone map, reserves the row's torrent ID (NextTID moves past
// it, so no later base can hand the ID out again, flushed or not) and
// seals a segment at FlushRows.
func (lk *Lake) appendRow(tid int, atNs int64, seeder bool, intern func(*dataset.IPTable) uint32) error {
	if tid < 0 || tid > dataset.MaxTorrentID {
		return fmt.Errorf("lake: torrent ID %d out of range", tid)
	}
	lk.mu.Lock()
	defer lk.mu.Unlock()
	if lk.closed {
		return errClosed
	}
	b := lk.bld
	b.store.AppendRaw(int32(tid), intern(b.store.IPs()), atNs, seeder)
	b.zone.add(int32(tid), atNs)
	lk.man.NextTID = max(lk.man.NextTID, int64(tid)+1)
	return lk.maybeFlushLocked()
}

// AddTorrents buffers torrent records for the next flush. Records are
// copied, but the lake keeps their BundledFiles slices, which the caller
// must not modify afterwards. IDs must be in range, and an accepted call
// reserves them at once: NextTorrentID moves past every one. A torrent
// ID has one record: a call with a record whose ID is committed, pending
// or repeated in recs is refused whole, naming the ID, and reserves
// nothing.
func (lk *Lake) AddTorrents(recs []*dataset.TorrentRecord) error {
	cps := make([]*dataset.TorrentRecord, len(recs))
	for i, r := range recs {
		cp := *r
		cps[i] = &cp
	}
	lk.mu.Lock()
	defer lk.mu.Unlock()
	if lk.closed {
		return errClosed
	}
	return lk.claimLocked(cps)
}

// claimLocked registers the torrent IDs of recs and queues the records
// for the next flush. If one is out of range, already has a committed or
// pending record, or repeats within recs, it registers none and names
// that record's ID: Merge would give the rows of a shared ID to whichever
// record sorts later, the snapshot fold to the one committed later. Once
// the whole call is accepted, NextTID moves past every ID in it.
func (lk *Lake) claimLocked(recs []*dataset.TorrentRecord) error {
	next := lk.man.NextTID
	for i, r := range recs {
		id := r.TorrentID
		var err error
		switch {
		case id < 0 || id > dataset.MaxTorrentID:
			err = fmt.Errorf("lake: torrent ID %d out of range", id)
		case lk.tids[id]:
			err = fmt.Errorf("lake: torrent ID %d already has a record", id)
		}
		if err != nil {
			for _, r := range recs[:i] {
				delete(lk.tids, r.TorrentID)
			}
			return err
		}
		lk.tids[id] = true
		next = max(next, int64(id)+1)
	}
	lk.man.NextTID = next
	lk.pendT = append(lk.pendT, recs...)
	return nil
}

// AddUsers buffers user records for the next flush.
func (lk *Lake) AddUsers(users []dataset.UserRecord) error {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	if lk.closed {
		return errClosed
	}
	lk.pendU = append(lk.pendU, users...)
	return nil
}

// ExtendWindow widens the lake's measurement window and names an unnamed
// lake. The change is committed by the next flush.
func (lk *Lake) ExtendWindow(name string, start, end time.Time) {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	lk.extendWindowLocked(name, start, end)
}

// extendWindowLocked is ExtendWindow under mu.
func (lk *Lake) extendWindowLocked(name string, start, end time.Time) {
	if lk.man.Name == "" {
		lk.man.Name = name
	}
	if lk.man.Start.IsZero() || (!start.IsZero() && start.Before(lk.man.Start)) {
		lk.man.Start = start
	}
	if end.After(lk.man.End) {
		lk.man.End = end
	}
}

// Flush seals the open builder into a segment file and commits it with
// the pending records as a new version. A no-op when nothing is pending.
func (lk *Lake) Flush() error {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	if lk.closed {
		return errClosed
	}
	return lk.flushLocked(true)
}

func (lk *Lake) maybeFlushLocked() error {
	if lk.bld.store.Len() < lk.opt.FlushRows {
		return nil
	}
	return lk.flushLocked(true)
}

// flushLocked writes the builder segment, appends the commit record —
// carrying the pending records — and (optionally) kicks the background
// compactor. The live state only advances — and the builder and the
// pending records are only cleared — once the journal append succeeds; a
// failed attempt retries with the same sequence number and Create
// truncates the half-written file.
func (lk *Lake) flushLocked(autoCompact bool) error {
	next := lk.man.clone()
	pay := &commitPayload{AddTorrents: lk.pendT, AddUsers: lk.pendU}
	next.Torrents += len(lk.pendT)
	next.Users += len(lk.pendU)
	sealedSeg := false
	if n := lk.bld.store.Len(); n > 0 {
		name := fmt.Sprintf("seg-%06d.obs", next.NextSeq)
		next.NextSeq++
		buf := encodeSegment(&lk.bld.store, lk.bld.zone)
		if err := lk.writeFileSync(name, buf); err != nil {
			lk.lastErr = err
			return err
		}
		sm := segMeta{File: name, Bytes: int64(len(buf)), zone: lk.bld.zone}
		next.Segments = append(next.Segments, sm)
		pay.AddSegments = append(pay.AddSegments, sm)
		next.Rows += int64(n)
		sealedSeg = true
	}
	if !sealedSeg && len(pay.AddTorrents) == 0 && len(pay.AddUsers) == 0 {
		return nil
	}
	next.Version++
	if err := lk.commitLocked(next, pay); err != nil {
		lk.lastErr = err
		return err
	}
	if sealedSeg {
		lk.bld = newBuilder()
	}
	lk.pendT, lk.pendU = nil, nil
	if autoCompact && lk.opt.Compact.Auto && lk.compactEligibleLocked() {
		lk.startCompactLocked()
	}
	return nil
}

// commitLocked appends one record to the journal and, on success,
// installs next as the live state and moves the records pay adds onto
// the committed lists, emptying pay's. Callers hold mu, own next (a
// clone or a state no reader shares), and have already written and
// fsynced every segment the record references. On failure the live
// state is unchanged.
func (lk *Lake) commitLocked(next *manifest, pay *commitPayload) error {
	payloadScalars(pay, next)
	data, err := json.Marshal(pay)
	if err != nil {
		return err
	}
	if err := lk.jr.Append(journal.Record{Version: next.Version, Payload: data}); err != nil {
		return err
	}
	lk.man = next
	lk.torrents = append(lk.torrents, pay.AddTorrents...)
	lk.users = append(lk.users, pay.AddUsers...)
	pay.AddTorrents, pay.AddUsers = nil, nil
	lk.hist = append(lk.hist, pay)
	return nil
}

// writeFileSync writes data and fsyncs before closing, so the journal
// can never reference a segment the disk does not yet hold.
func (lk *Lake) writeFileSync(name string, data []byte) error {
	f, err := lk.fs.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// deleteDeadLocked removes files retired by compaction. Callers hold both
// scanMu (write) and mu.
func (lk *Lake) deleteDeadLocked() {
	for _, f := range lk.dead {
		_ = lk.fs.Remove(f)
		lk.postCache.Delete(f)
	}
	lk.dead = nil
}

// ---------------------------------------------------------------------
// Bulk import / materialize
// ---------------------------------------------------------------------

// ImportDataset appends a whole dataset to the lake: torrent IDs are
// offset by a base past every ID the lake has reserved — committed,
// pending or still in the open builder — so successive crawls never
// collide, the dataset's window extends the lake's, and
// DroppedObservations carries over into the lake's dropped counter. The
// base, the reservation of every ID the dataset mentions and the
// records' registration happen in one critical section, so concurrent
// imports (or an import racing a live campaign stream) get disjoint
// bases; the rows then enter one at a time through Append's path, and
// segments flush at FlushRows. As with AddTorrents, the lake keeps the
// records' BundledFiles slices; a dataset with two records under one
// torrent ID is refused whole.
func (lk *Lake) ImportDataset(ds *dataset.Dataset) error {
	// The reservation must clear every ID the dataset mentions — records
	// and observations can disagree in hand-built datasets.
	maxID := -1
	seen := make(map[int]bool, len(ds.Torrents))
	for _, t := range ds.Torrents {
		switch {
		case t.TorrentID < 0 || t.TorrentID > dataset.MaxTorrentID:
			return fmt.Errorf("lake: torrent ID %d out of range", t.TorrentID)
		case seen[t.TorrentID]:
			return fmt.Errorf("lake: torrent ID %d has two records in the dataset", t.TorrentID)
		}
		seen[t.TorrentID] = true
		maxID = max(maxID, t.TorrentID)
	}
	src := &ds.Obs
	for i := 0; i < src.Len(); i++ {
		maxID = max(maxID, src.TorrentID(i))
	}

	lk.mu.Lock()
	if lk.closed {
		lk.mu.Unlock()
		return errClosed
	}
	base := int(lk.man.NextTID)
	if base+maxID > dataset.MaxTorrentID {
		lk.mu.Unlock()
		return fmt.Errorf("lake: import would exceed the torrent ID space (base %d + max %d)", base, maxID)
	}
	cps := make([]*dataset.TorrentRecord, len(ds.Torrents))
	for i, t := range ds.Torrents {
		cp := *t
		cp.TorrentID += base
		cps[i] = &cp
	}
	if err := lk.claimLocked(cps); err != nil {
		lk.mu.Unlock()
		return err
	}
	lk.man.NextTID = int64(base + maxID + 1)
	lk.pendU = append(lk.pendU, ds.Users...)
	lk.extendWindowLocked(ds.Name, ds.Start, ds.End)
	lk.man.Dropped += int64(ds.DroppedObservations)
	lk.mu.Unlock()

	for i := 0; i < src.Len(); i++ {
		ip := src.IPString(i)
		err := lk.appendRow(src.TorrentID(i)+base, src.UnixNano(i), src.Seeder(i), func(ips *dataset.IPTable) uint32 { return ips.InternString(ip) })
		if err != nil {
			return err
		}
	}
	return lk.Flush()
}

// Materialize reads the committed lake back into one in-memory dataset:
// the records committed at pred.AsOf plus every observation matching
// pred, canonicalised by dataset.Merge so the result is independent of
// segment boundaries, flush sizes and compaction history. It also
// returns the committed version the scan used — the exact staleness
// stamp for caches built over the result; reading Version() separately
// around the call can be off by any commits that land in between. With a
// zero Predicate and a lake holding exactly one imported canonical
// dataset, the result is that dataset, byte for byte. The result is the
// caller's: Materialize only reads the lake's shared records, and Merge
// copies them.
func (lk *Lake) Materialize(ctx context.Context, pred Predicate) (*dataset.Dataset, uint64, error) {
	lk.scanMu.RLock()
	defer lk.scanMu.RUnlock()
	man, err := lk.pinned(pred.AsOf)
	if err != nil {
		return nil, 0, err
	}

	raw := &dataset.Dataset{Name: man.Name, Start: man.Start, End: man.End}
	torrents, users := lk.recordsAt(man)
	if pred.TorrentIDs != nil {
		want := make(map[int]bool, len(pred.TorrentIDs))
		for _, id := range pred.TorrentIDs {
			want[id] = true
		}
		for _, t := range torrents {
			if want[t.TorrentID] {
				raw.Torrents = append(raw.Torrents, t)
			}
		}
	} else {
		raw.Torrents = torrents
	}
	raw.Users = users

	err = lk.scanManifest(ctx, man, pred, func(b *Batch) error {
		appendSegRows(&raw.Obs, b.seg, b.rows)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	out := dataset.Merge(man.Name, raw)
	out.Start, out.End = man.Start, man.End
	out.DroppedObservations += int(man.Dropped)
	return out, man.Version, nil
}

// appendSegRows copies a decoded segment's rows — the listed ones, or
// all of them when rows is nil — into dst, remapping the segment's IP
// dictionary into dst's intern table once per segment, not once per row.
func appendSegRows(dst *dataset.ObsStore, d *segData, rows []int32) {
	ips := dst.IPs()
	remap := make([]uint32, len(d.ips))
	for i, ip := range d.ips {
		remap[i] = ips.InternString(ip)
	}
	add := func(i int32) { dst.AppendRaw(d.tids[i], remap[d.ipIdx[i]], d.atNs[i], d.seeder(i)) }
	if rows == nil {
		for i := int32(0); i < int32(d.rows()); i++ {
			add(i)
		}
		return
	}
	for _, i := range rows {
		add(i)
	}
}

// TorrentRecords returns the torrent (and user) records committed at
// version (0 = head): records committed after that version are absent,
// exactly as a reader at the time would have seen the lake. The slices
// are cut from the lake's in-memory lists and shared with every other
// reader: the caller must not modify them or the records they point to.
// Each is capped at its length, so appending to it copies and a later
// flush never writes into it.
func (lk *Lake) TorrentRecords(version uint64) ([]*dataset.TorrentRecord, []dataset.UserRecord, error) {
	man, err := lk.pinned(version)
	if err != nil {
		return nil, nil, err
	}
	t, u := lk.recordsAt(man)
	return t, u, nil
}

// recordsAt cuts the records committed at m from the lake's lists, each
// slice capped at its length.
func (lk *Lake) recordsAt(m *manifest) ([]*dataset.TorrentRecord, []dataset.UserRecord) {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	return lk.torrents[:m.Torrents:m.Torrents], lk.users[:m.Users:m.Users]
}

// VersionUnavailableError reports a pinned version the lake cannot
// serve: never committed, or referencing segments a post-compaction
// vacuum already deleted.
type VersionUnavailableError struct {
	Version uint64
	Head    uint64
	Reason  string
}

func (e *VersionUnavailableError) Error() string {
	return fmt.Sprintf("lake: version %d unavailable (head %d): %s", e.Version, e.Head, e.Reason)
}

// pinned resolves the committed state a scan should run against, as a
// private copy: version 0 (or the current head) means the live state,
// anything else the fold of the journal's first version records.
// Scanning callers hold scanMu.R, which keeps the resolved files on disk
// until the scan finishes.
func (lk *Lake) pinned(version uint64) (*manifest, error) {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	head := lk.man.Version
	if version == 0 || version == head {
		return lk.man.clone(), nil
	}
	if version > head {
		return nil, &VersionUnavailableError{Version: version, Head: head, Reason: "not committed yet"}
	}
	m := foldHist(lk.hist[:version])
	// Compaction retires this version's segments eventually; unless
	// Options.Retain holds them, a vacuum may already have deleted them.
	for _, s := range m.Segments {
		sz, err := lk.fs.Size(s.File)
		if err != nil || sz != s.Bytes {
			return nil, &VersionUnavailableError{Version: version, Head: head,
				Reason: fmt.Sprintf("segment %s was vacuumed after compaction", s.File)}
		}
	}
	return m, nil
}

// Verify checks the whole lake: the on-disk journal is strictly
// re-decoded (rejecting torn tails, CRC damage, version gaps and
// parent-hash breaks), folded (rejecting a retirement of a segment that
// is not live, and a rewrite whose output is not its victims' rows), and
// held against the live state; then every committed
// segment is read, CRC-checked and decoded — which proves its header
// zone and postings against its rows — and its journal entry's zone
// maps, the copy scans prune on, are held against the file's. The
// re-decoded journal's records are held against the ones the handle
// serves, version by version. One error per problem; nil means the lake
// is fully intact.
func (lk *Lake) Verify(ctx context.Context) []error {
	lk.scanMu.RLock()
	defer lk.scanMu.RUnlock()
	// Journal bytes and state snapshot under one critical section, so an
	// interleaved commit cannot register as a false divergence.
	lk.mu.Lock()
	jbuf, jerr := lk.fs.ReadFile(journal.Name)
	man := lk.man.clone()
	torrents, users := lk.torrents, lk.users
	lk.mu.Unlock()
	var errs []error
	switch {
	case jerr != nil && os.IsNotExist(jerr) && man.Version == 0:
		// A fresh lake: nothing committed, no journal yet.
	case jerr != nil:
		errs = append(errs, fmt.Errorf("lake: verify: reading journal: %w", jerr))
	default:
		errs = append(errs, verifyJournal(jbuf, man, torrents, users)...)
	}
	for _, sm := range man.Segments {
		if ctx.Err() != nil {
			errs = append(errs, ctx.Err())
			break
		}
		if _, err := lk.readSegment(sm); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// verifyJournal strictly decodes and replays journal bytes and compares
// the folded head against the live state man and the served records.
// Name/Start/End, Dropped and NextTID legitimately run ahead of the
// journal in memory (ExtendWindow, and every append or claim reserving
// its torrent IDs, commit with the next flush), so they are excluded;
// everything else must agree exactly.
func verifyJournal(buf []byte, man *manifest, torrents []*dataset.TorrentRecord, users []dataset.UserRecord) []error {
	recs, err := journal.Decode(buf)
	if err != nil {
		return []error{fmt.Errorf("lake: verify: %w", err)}
	}
	hist, folded, err := decodeHist(recs)
	if err != nil {
		return []error{err}
	}
	if folded.Version != man.Version {
		return []error{fmt.Errorf("lake: verify: journal head is version %d, live state is %d", folded.Version, man.Version)}
	}
	var errs []error
	if folded.NextSeq != man.NextSeq {
		errs = append(errs, fmt.Errorf("lake: verify: journal next_seq %d, live state %d", folded.NextSeq, man.NextSeq))
	}
	if folded.Rows != man.Rows || folded.Torrents != man.Torrents || folded.Users != man.Users {
		errs = append(errs, fmt.Errorf("lake: verify: journal rows/torrents/users %d/%d/%d, live state %d/%d/%d",
			folded.Rows, folded.Torrents, folded.Users, man.Rows, man.Torrents, man.Users))
	} else {
		errs = append(errs, verifyRecords(hist, torrents, users)...)
	}
	if !slices.Equal(folded.Segments, man.Segments) {
		errs = append(errs, fmt.Errorf("lake: verify: journal segment list disagrees with live state (%d vs %d entries)",
			len(folded.Segments), len(man.Segments)))
	}
	return errs
}

// verifyRecords holds the records each journal record in hist adds
// against the entries of the served lists its version accounts for,
// compared as the journal stores them, naming the version of each that
// differs. The served lists must be as long as hist's head counts.
func verifyRecords(hist []*commitPayload, torrents []*dataset.TorrentRecord, users []dataset.UserRecord) []error {
	var errs []error
	var nt, nu int
	for i, pay := range hist {
		for j, r := range pay.AddTorrents {
			if !sameJSON(r, torrents[nt+j]) {
				errs = append(errs, fmt.Errorf("lake: verify: version %d: served torrent record %d (ID %d) differs from its journal record",
					i+1, nt+j, r.TorrentID))
			}
		}
		for j, u := range pay.AddUsers {
			if !sameJSON(u, users[nu+j]) {
				errs = append(errs, fmt.Errorf("lake: verify: version %d: served user record %d (%q) differs from its journal record",
					i+1, nu+j, u.Username))
			}
		}
		nt, nu = pay.Torrents, pay.Users
	}
	return errs
}

// sameJSON reports whether a and b encode to the same JSON. Encoding
// fails only on a timestamp outside years 0–9999, which neither a decoded
// nor a committed record can hold.
func sameJSON(a, b any) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return bytes.Equal(ja, jb)
}

// readSegment loads and decodes one committed segment file, and refuses
// one whose journal entry carries other zone maps than its header: the
// planner pruned on the journal's copy.
func (lk *Lake) readSegment(sm segMeta) (*segData, error) {
	buf, err := lk.fs.ReadFile(sm.File)
	if err != nil {
		return nil, err
	}
	d, err := decodeSegment(sm.File, buf)
	if err != nil {
		return nil, err
	}
	if d.zone != sm.zone {
		return nil, &CorruptSegmentError{File: sm.File,
			Reason: fmt.Sprintf("journal zone %+v disagrees with the file's %+v", sm.zone, d.zone)}
	}
	return d, nil
}

// readPostings returns (and memoizes) one segment's postings, decoding
// the segment the first time it is asked.
func (lk *Lake) readPostings(sm segMeta) (*postings, error) {
	if v, ok := lk.postCache.Load(sm.File); ok {
		return v.(*postings), nil
	}
	d, err := lk.readSegment(sm)
	if err != nil {
		return nil, err
	}
	p := d.postings // a copy, so the cache does not pin the decoded columns
	lk.postCache.Store(sm.File, &p)
	return &p, nil
}

// Package journal is the lake's append-only commit log, the on-disk
// source of truth. One file holds a magic header followed by framed records, one fsynced
// record per lake commit. Each record carries a monotonically increasing
// version, a checkpoint flag, the SHA-256 chain hash of everything
// before it, an opaque payload (the lake encodes its commit deltas and
// checkpoint snapshots as JSON) and a CRC-32C footer. Replaying the
// records from the latest checkpoint reconstructs the lake state at any
// committed version — that is what as_of time travel folds.
//
// All integers are little-endian. Layout:
//
//	magic "BTLKJL1\n"                       8 bytes
//	then per record:
//	  length  u32   of flags..payload       4
//	  flags   u8    bit0 = checkpoint       1
//	  version u64                           8
//	  parent  [32]byte chain hash           32
//	  payload length-41 bytes
//	  crc32c  u32   over length..payload    4
//
// The chain hash after a record is SHA-256(parent ‖ flags ‖ version ‖
// payload); the first record's parent is all zeros. A record's version
// must be exactly one greater than its predecessor's — except checkpoint
// records, which snapshot the state *at* a version and therefore repeat
// it — and the first record must either open at version 1 or be a
// checkpoint (journals of lakes migrated from the pre-journal format open
// mid-history, so that snapshot must be self-contained).
//
// Durability model: records are appended with one fsync each, so a crash
// can only lose or tear the final, unacknowledged record. Open repairs
// exactly that — a frame cut short by the end of the file is discarded
// by rewriting the valid prefix through JOURNAL.tmp + rename — while a
// complete frame that fails its CRC or chain check is hard corruption
// and refuses to open, never silent truncation.
package journal

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"btpub/internal/vfs"
)

const (
	// Name is the journal's file name inside a lake directory.
	Name = "JOURNAL"
	// TmpName is the torn-tail repair scratch file (orphan-cleaned by
	// the lake like any other tmp).
	TmpName = "JOURNAL.tmp"

	magic = "BTLKJL1\n"

	// frameFixed is the length of the framed fields between the length
	// prefix and the payload: flags + version + parent hash.
	frameFixed = 1 + 8 + 32
	// maxPayload bounds a single record, so a corrupt length field can
	// never drive a multi-gigabyte allocation.
	maxPayload = 1 << 30

	flagCheckpoint = 0x01
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one committed journal entry.
type Record struct {
	// Checkpoint marks a self-contained snapshot of the state at
	// Version, rather than a delta on top of the previous record.
	Checkpoint bool
	// Version is the committed lake version this record establishes
	// (checkpoints repeat the version they snapshot).
	Version uint64
	// Payload is the commit body; the journal treats it as opaque bytes.
	Payload []byte
}

// CorruptError reports journal bytes that cannot have been produced by a
// crash of the documented write protocol — a complete frame with a bad
// CRC, a broken parent chain, or a version that regresses.
type CorruptError struct {
	Offset int
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("journal: corrupt at byte %d: %s", e.Offset, e.Reason)
}

// chainNext advances the parent chain over one record.
func chainNext(parent [32]byte, rec Record) [32]byte {
	h := sha256.New()
	h.Write(parent[:])
	var hdr [9]byte
	if rec.Checkpoint {
		hdr[0] = flagCheckpoint
	}
	binary.LittleEndian.PutUint64(hdr[1:], rec.Version)
	h.Write(hdr[:])
	h.Write(rec.Payload)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// checkOrder validates one record's version against its predecessor
// (prev = 0, first = true for the opening record).
func checkOrder(rec Record, prev uint64, first bool) error {
	if first {
		if rec.Version == 0 {
			return fmt.Errorf("first record has version 0")
		}
		if rec.Version != 1 && !rec.Checkpoint {
			return fmt.Errorf("first record opens at version %d but is not a checkpoint", rec.Version)
		}
		return nil
	}
	if rec.Checkpoint {
		if rec.Version != prev {
			return fmt.Errorf("checkpoint at version %d does not snapshot the preceding version %d", rec.Version, prev)
		}
		return nil
	}
	if rec.Version != prev+1 {
		return fmt.Errorf("version %d follows %d (want %d)", rec.Version, prev, prev+1)
	}
	return nil
}

// appendFrame encodes one record onto buf.
func appendFrame(buf []byte, parent [32]byte, rec Record) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(frameFixed+len(rec.Payload)))
	var flags byte
	if rec.Checkpoint {
		flags = flagCheckpoint
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, rec.Version)
	buf = append(buf, parent[:]...)
	buf = append(buf, rec.Payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], castagnoli))
}

// parse walks buf (which must start with the magic), returning the
// records of every complete, valid frame plus the byte length of that
// valid prefix. A frame cut short by the end of the buffer is not an
// error — it is the torn tail of a crashed append, reported by validLen
// < len(buf) — but a complete frame that fails validation returns a
// *CorruptError.
func parse(buf []byte) (recs []Record, validLen int, err error) {
	if len(buf) < len(magic) {
		return nil, 0, nil // torn (or empty) header: nothing committed
	}
	if string(buf[:len(magic)]) != magic {
		return nil, 0, &CorruptError{Offset: 0, Reason: "bad magic"}
	}
	p := len(magic)
	var chain [32]byte
	var prev uint64
	for p < len(buf) {
		if p+4 > len(buf) {
			return recs, p, nil // torn length prefix
		}
		flen := int(binary.LittleEndian.Uint32(buf[p:]))
		if flen < frameFixed || flen > frameFixed+maxPayload {
			return nil, p, &CorruptError{Offset: p, Reason: fmt.Sprintf("frame length %d out of range", flen)}
		}
		end := p + 4 + flen + 4
		if end > len(buf) {
			return recs, p, nil // torn frame body
		}
		body := buf[p : p+4+flen]
		if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(buf[p+4+flen:]); got != want {
			return nil, p, &CorruptError{Offset: p, Reason: fmt.Sprintf("CRC mismatch (stored %08x, computed %08x)", want, got)}
		}
		flags := body[4]
		if flags&^byte(flagCheckpoint) != 0 {
			return nil, p, &CorruptError{Offset: p, Reason: fmt.Sprintf("unknown flags %#02x", flags)}
		}
		rec := Record{
			Checkpoint: flags&flagCheckpoint != 0,
			Version:    binary.LittleEndian.Uint64(body[5:]),
			Payload:    append([]byte(nil), body[4+frameFixed:]...),
		}
		if err := checkOrder(rec, prev, len(recs) == 0); err != nil {
			return nil, p, &CorruptError{Offset: p, Reason: err.Error()}
		}
		var parent [32]byte
		copy(parent[:], body[13:13+32])
		if parent != chain {
			return nil, p, &CorruptError{Offset: p, Reason: "parent hash does not chain to the preceding record"}
		}
		chain = chainNext(chain, rec)
		prev = rec.Version
		recs = append(recs, rec)
		p = end
	}
	return recs, p, nil
}

// Decode strictly parses a complete journal image: every byte must
// belong to a valid frame (no torn tail tolerated). It is the read path
// behind Lake.Verify and the fuzz target.
func Decode(buf []byte) ([]Record, error) {
	if len(buf) < len(magic) {
		// parse treats this as a repairable torn header; a *complete*
		// image must at least carry its magic.
		return nil, &CorruptError{Offset: 0, Reason: "truncated header"}
	}
	recs, n, err := parse(buf)
	if err != nil {
		return nil, err
	}
	if n != len(buf) {
		return nil, &CorruptError{Offset: n, Reason: fmt.Sprintf("%d trailing bytes are not a complete record", len(buf)-n)}
	}
	return recs, nil
}

// Encode serializes records into a complete journal image (magic +
// frames, chain recomputed). Decode(Encode(recs)) round-trips, and for
// any buf accepted by Decode, Encode(Decode(buf)) reproduces buf.
func Encode(recs []Record) []byte {
	buf := []byte(magic)
	var chain [32]byte
	for _, rec := range recs {
		buf = appendFrame(buf, chain, rec)
		chain = chainNext(chain, rec)
	}
	return buf
}

// Journal is an open commit log bound to one lake filesystem. Methods
// are not safe for concurrent use; the lake serializes commits under its
// own lock.
type Journal struct {
	fs    vfs.FS
	name  string
	recs  []Record
	chain [32]byte
	// onDisk is the journal's current byte length — the append offset —
	// and doubles as "the file (with its magic) exists".
	onDisk int64
}

// Open reads and replays the journal file, repairing a torn tail (the
// partially-written final record of a crashed append) in place. A
// missing file yields an empty journal whose first Append creates it.
func Open(fsys vfs.FS, name string) (*Journal, error) {
	j := &Journal{fs: fsys, name: name}
	buf, err := fsys.ReadFile(name)
	if os.IsNotExist(err) {
		return j, nil
	}
	if err != nil {
		return nil, err
	}
	recs, validLen, perr := parse(buf)
	if perr != nil {
		return nil, fmt.Errorf("journal %s: %w", name, perr)
	}
	if validLen < len(buf) {
		// Torn tail. Rewrite the valid prefix through a tmp + rename so
		// the repair itself is crash-atomic. A header so torn that not
		// even the magic survived means nothing was ever committed:
		// remove the file and report an empty journal, and the caller's
		// first commit recreates it.
		if validLen == 0 {
			if err := fsys.Remove(name); err != nil {
				return nil, fmt.Errorf("journal %s: removing torn header: %w", name, err)
			}
			return j, nil
		}
		if err := writeFileSync(fsys, TmpName, buf[:validLen]); err != nil {
			return nil, fmt.Errorf("journal %s: repairing torn tail: %w", name, err)
		}
		if err := fsys.Rename(TmpName, name); err != nil {
			return nil, fmt.Errorf("journal %s: repairing torn tail: %w", name, err)
		}
		_ = fsys.SyncDir()
	}
	j.recs = recs
	j.onDisk = int64(validLen)
	for _, rec := range recs {
		j.chain = chainNext(j.chain, rec)
	}
	return j, nil
}

func writeFileSync(fsys vfs.FS, name string, data []byte) error {
	f, err := fsys.Create(name)
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

// Records returns the committed records in order. The slice is shared;
// callers must not modify it.
func (j *Journal) Records() []Record { return j.recs }

// Head returns the highest committed version (0 = empty journal).
func (j *Journal) Head() uint64 {
	if len(j.recs) == 0 {
		return 0
	}
	return j.recs[len(j.recs)-1].Version
}

// Len returns the number of committed records.
func (j *Journal) Len() int { return len(j.recs) }

// Size returns the journal's on-disk byte length.
func (j *Journal) Size() int64 { return j.onDisk }

// Append commits one record: open at end, write the frame, fsync,
// close. On any error the in-memory state is unchanged and the caller
// may retry. The file length is checked first, so a torn tail left by a
// previously failed (but non-fatal) append is rewritten away instead of
// being buried under the new frame; a tail torn by a crash is repaired
// by the next Open.
func (j *Journal) Append(rec Record) error {
	var prev uint64
	if len(j.recs) > 0 {
		prev = j.recs[len(j.recs)-1].Version
	}
	if err := checkOrder(rec, prev, len(j.recs) == 0); err != nil {
		return fmt.Errorf("journal %s: %w", j.name, err)
	}
	sz, err := j.fs.Size(j.name)
	if os.IsNotExist(err) {
		sz = 0
	} else if err != nil {
		return err
	}
	if sz != j.onDisk {
		img := Encode(j.recs)
		if err := writeFileSync(j.fs, TmpName, img); err != nil {
			return fmt.Errorf("journal %s: rewriting torn tail: %w", j.name, err)
		}
		if err := j.fs.Rename(TmpName, j.name); err != nil {
			return fmt.Errorf("journal %s: rewriting torn tail: %w", j.name, err)
		}
		_ = j.fs.SyncDir()
		j.onDisk = int64(len(img))
	}
	var frame []byte
	if j.onDisk == 0 {
		frame = []byte(magic)
	}
	frame = appendFrame(frame, j.chain, rec)

	f, err := j.fs.Append(j.name)
	if err != nil {
		return err
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	rec.Payload = append([]byte(nil), rec.Payload...)
	j.recs = append(j.recs, rec)
	j.chain = chainNext(j.chain, rec)
	j.onDisk += int64(len(frame))
	return nil
}

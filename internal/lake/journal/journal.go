// Package journal is the lake's append-only commit log, the on-disk
// source of truth. One file holds a magic header followed by framed records, one fsynced
// record per lake commit. Each record carries its version, the SHA-256
// chain hash of everything before it, an opaque payload (the lake
// encodes its commit deltas as JSON) and a CRC-32C footer. Versions are
// dense: the first record is version 1 and each one after it is its
// predecessor's plus one, so the record for version v is the journal's
// v-th and the state at v is the fold of the first v records — that is
// what as_of time travel folds.
//
// All integers are little-endian. Layout:
//
//	magic "BTLKJL2\n"                       8 bytes
//	then per record:
//	  length  u32   of version..payload     4
//	  version u64                           8
//	  parent  [32]byte chain hash           32
//	  payload length-40 bytes
//	  crc32c  u32   over length..payload    4
//
// The chain hash after a record is SHA-256(parent ‖ version ‖ payload);
// the first record's parent is all zeros. A journal in format 1
// ("BTLKJL1\n", which also held checkpoint records) is refused by name.
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

	magic = "BTLKJL2\n"
	// magicV1 opened format-1 journals, whose frames carried a flags byte
	// marking checkpoint records.
	magicV1 = "BTLKJL1\n"

	// frameFixed is the length of the framed fields between the length
	// prefix and the payload: version + parent hash.
	frameFixed = 8 + 32
	// maxPayload bounds a single record, so a corrupt length field can
	// never drive a multi-gigabyte allocation.
	maxPayload = 1 << 30
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one committed journal entry.
type Record struct {
	// Version is the committed lake version this record establishes.
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
	var ver [8]byte
	binary.LittleEndian.PutUint64(ver[:], rec.Version)
	h.Write(ver[:])
	h.Write(rec.Payload)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// checkOrder validates the version of a record that follows n others:
// versions are dense from 1, so it must be n+1.
func checkOrder(rec Record, n int) error {
	if want := uint64(n) + 1; rec.Version != want {
		return fmt.Errorf("record %d has version %d (want %d)", n+1, rec.Version, want)
	}
	return nil
}

// appendFrame encodes one record onto buf.
func appendFrame(buf []byte, parent [32]byte, rec Record) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(frameFixed+len(rec.Payload)))
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
	switch string(buf[:len(magic)]) {
	case magic:
	case magicV1:
		return nil, 0, fmt.Errorf("journal format 1 (with checkpoint records) is no longer read; rebuild the lake from its source data")
	default:
		return nil, 0, &CorruptError{Offset: 0, Reason: "bad magic"}
	}
	p := len(magic)
	var chain [32]byte
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
		rec := Record{
			Version: binary.LittleEndian.Uint64(body[4:]),
			Payload: append([]byte(nil), body[4+frameFixed:]...),
		}
		if err := checkOrder(rec, len(recs)); err != nil {
			return nil, p, &CorruptError{Offset: p, Reason: err.Error()}
		}
		var parent [32]byte
		copy(parent[:], body[12:12+32])
		if parent != chain {
			return nil, p, &CorruptError{Offset: p, Reason: "parent hash does not chain to the preceding record"}
		}
		chain = chainNext(chain, rec)
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

// Len returns the number of committed records, which is also the head
// version (0 = empty journal).
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
	if err := checkOrder(rec, len(j.recs)); err != nil {
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

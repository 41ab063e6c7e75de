// White-box segment format tests: the dictionaries a segment carries are
// its postings, the decoder accepts only the canonical encoding of what
// it decodes, and the zone maps scans prune on are checked against the
// rows wherever they are stored.
package lake

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"btpub/internal/dataset"
	"btpub/internal/lake/journal"
	"btpub/internal/vfs"
)

func sampleStore(rows int) *dataset.ObsStore {
	t0 := time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)
	var st dataset.ObsStore
	for i := 0; i < rows; i++ {
		st.Append(dataset.Observation{
			TorrentID: (i % 7) * 3,
			IP:        fmt.Sprintf("10.%d.%d.%d", i%3, (i/3)%200, i%251),
			At:        t0.Add(time.Duration(i) * time.Second),
			Seeder:    i%5 == 0,
		})
	}
	return &st
}

// seal encodes a store the way flush does: under the zone of its rows.
func seal(st *dataset.ObsStore) []byte {
	z := emptyZone()
	for i := 0; i < st.Len(); i++ {
		z.add(int32(st.TorrentID(i)), st.UnixNano(i))
	}
	return encodeSegment(st, z)
}

// TestSegmentDictionariesArePostings: a sealed segment's dictionaries are
// sorted, hold exactly what its rows use, answer membership exactly, and
// the rows decode to what was appended whatever order the builder
// interned the addresses in.
func TestSegmentDictionariesArePostings(t *testing.T) {
	st := sampleStore(500)
	d, err := decodeSegment("seg", seal(st))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSorted(d.ips) || len(d.ips) != st.IPs().Len() {
		t.Fatalf("dictionary: %d addresses, sorted=%v, builder interned %d", len(d.ips), slices.IsSorted(d.ips), st.IPs().Len())
	}
	if want := []int32{0, 3, 6, 9, 12, 15, 18}; !slices.Equal(d.tidSet, want) {
		t.Fatalf("TID dictionary = %v, want %v", d.tidSet, want)
	}
	for i := 0; i < st.Len(); i++ {
		if int(d.tids[i]) != st.TorrentID(i) || d.ips[d.ipIdx[i]] != st.IPString(i) ||
			d.atNs[i] != st.UnixNano(i) || d.seeder(int32(i)) != st.Seeder(i) {
			t.Fatalf("row %d decoded wrong", i)
		}
	}

	// Lookups answer exactly, not probabilistically; probe lists are sorted.
	for i := 0; i < st.Len(); i += 37 {
		if !d.hasAnyIP([]string{st.IPString(i)}) {
			t.Fatalf("hasAnyIP(%q) = false for an observed address", st.IPString(i))
		}
	}
	if !d.hasAnyIP([]string{st.IPString(0), "203.0.113.1"}) {
		t.Fatal("hasAnyIP missed an observed address")
	}
	if d.hasAnyIP([]string{"203.0.113.1"}) || d.hasAnyIP([]string{"203.0.113.1", "203.0.113.2"}) {
		t.Fatal("hasAnyIP claims unobserved addresses")
	}
	// 4 lies inside the TID zone [0, 18] and on no row.
	if !d.hasAnyTID([]int32{4, 9}) || d.hasAnyTID([]int32{4, 100}) {
		t.Fatal("hasAnyTID wrong")
	}

	// An empty segment is valid too.
	var none dataset.ObsStore
	if d, err = decodeSegment("empty", seal(&none)); err != nil || d.rows() != 0 || len(d.ips) != 0 || len(d.tidSet) != 0 {
		t.Fatalf("empty round-trip: %v, %+v", err, d)
	}
}

// fixCRC recomputes the footer after a test edited the body.
func fixCRC(buf []byte) []byte {
	body := buf[:len(buf)-4]
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
}

func TestSegmentDecodeRejectsCorruption(t *testing.T) {
	valid := seal(sampleStore(100))
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"short", func(b []byte) []byte { return b[:segHeaderLen] }},
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"old-magic", func(b []byte) []byte { copy(b, "BTLKSG2\n"); return fixCRC(b) }},
		{"bit-flip", func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-9] }},
		{"trailing-garbage", func(b []byte) []byte { return append(b, 0xde, 0xad) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := tc.mutate(append([]byte(nil), valid...))
			var ce *CorruptSegmentError
			if _, err := decodeSegment("x.obs", buf); !errors.As(err, &ce) {
				t.Fatalf("decode error = %v, want *CorruptSegmentError", err)
			}
		})
	}
}

// TestZoneMapsVerified: the zone maps are pruning state, so both copies
// are held against the rows. A header whose maxAt was rewritten (CRC
// fixed up, so only the cross-check can tell) is refused by the decoder;
// a journal entry whose zone differs from its intact file's is refused
// by the scan that opens the segment and reported by Verify.
func TestZoneMapsVerified(t *testing.T) {
	buf := seal(sampleStore(100))
	maxAt := int64(binary.LittleEndian.Uint64(buf[24:]))
	binary.LittleEndian.PutUint64(buf[24:], uint64(maxAt+int64(time.Hour)))
	if _, err := decodeSegment("seg", fixCRC(buf)); err == nil || !strings.Contains(err.Error(), "header zone") {
		t.Fatalf("decode of a header with a widened maxAt: %v, want a header-zone error", err)
	}

	dir := filepath.Join(t.TempDir(), "lake")
	lk, err := Open(dir, Options{FlushRows: 128})
	if err != nil {
		t.Fatal(err)
	}
	fillLake(t, lk, 0, 300)
	if err := lk.Close(); err != nil {
		t.Fatal(err)
	}
	// Narrow the first segment's committed max_at_ns by a second, the way
	// a writer bug would: the file is intact, the journal chain valid.
	fsys := vfs.OS(dir)
	jbuf, err := fsys.ReadFile(journal.Name)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := journal.Decode(jbuf)
	if err != nil {
		t.Fatal(err)
	}
	first := liveManifest(lk).Segments[0]
	old := fmt.Sprintf(`"max_at_ns":%d`, first.MaxAtNs)
	if !bytes.Contains(recs[0].Payload, []byte(old)) {
		t.Fatalf("first record does not carry %s: %s", old, recs[0].Payload)
	}
	recs[0].Payload = bytes.Replace(recs[0].Payload, []byte(old), []byte(fmt.Sprintf(`"max_at_ns":%d`, first.MaxAtNs-int64(time.Second))), 1)
	f, err := fsys.Create(journal.Name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(journal.Encode(recs)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	lk, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()
	errs := lk.Verify(context.Background())
	var ce *CorruptSegmentError
	if len(errs) != 1 || !errors.As(errs[0], &ce) || ce.File != first.File || !strings.Contains(ce.Reason, "journal zone") {
		t.Fatalf("Verify = %v, want one journal-zone error for %s", errs, first.File)
	}
	if err := countRowsErr(lk, Predicate{}); !errors.As(err, &ce) || ce.File != first.File {
		t.Fatalf("scan over the mis-journaled segment: %v", err)
	}
}

// liveManifest snapshots a handle's committed state.
func liveManifest(lk *Lake) *manifest {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	return lk.man.clone()
}

// FuzzSegmentDecode: decode must never panic on arbitrary bytes nor
// allocate beyond a multiple of their length, and anything it accepts is
// internally consistent — sorted dictionary, in-range rows, TID postings
// equal to the tids column's distinct values, header zone equal to the
// rows' — and re-encodes to the identical bytes. Each input is also tried
// with its footer recomputed, so mutations reach the parser behind the
// CRC gate.
func FuzzSegmentDecode(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte(segMagic))
	f.Add(seal(&dataset.ObsStore{}))
	f.Add(seal(sampleStore(50)))
	f.Add(seal(sampleStore(1)))
	f.Fuzz(func(t *testing.T, in []byte) {
		checkDecode(t, in)
		if len(in) >= 4 {
			checkDecode(t, fixCRC(slices.Clone(in)))
		}
	})
}

func checkDecode(t *testing.T, buf []byte) {
	d, err := decodeSegment("fuzz.obs", buf)
	if err != nil {
		return
	}
	// The decoder sizes each allocation by a header count it first held
	// against the input length; every entry decoded cost at least a byte.
	if n := len(d.ips) + len(d.tidSet) + 3*d.rows() + len(d.seed); n > 4*len(buf) {
		t.Fatalf("decoded %d entries from %d bytes", n, len(buf))
	}
	for i := 1; i < len(d.ips); i++ {
		if d.ips[i-1] >= d.ips[i] {
			t.Fatalf("dictionary not strictly ascending at %d", i)
		}
	}
	var st dataset.ObsStore
	for i, ip := range d.ips {
		if got := st.IPs().InternString(ip); got != uint32(i) {
			t.Fatalf("dictionary entry %d re-interned as %d", i, got)
		}
	}
	z := emptyZone()
	var tids []int32
	for i := 0; i < d.rows(); i++ {
		if int(d.ipIdx[i]) >= len(d.ips) {
			t.Fatalf("row %d: ipIdx %d of %d", i, d.ipIdx[i], len(d.ips))
		}
		st.AppendRaw(d.tids[i], d.ipIdx[i], d.atNs[i], d.seeder(int32(i)))
		z.add(d.tids[i], d.atNs[i])
		tids = append(tids, d.tids[i])
	}
	slices.Sort(tids)
	if tids = slices.Compact(tids); !slices.Equal(tids, d.tidSet) {
		t.Fatalf("TID postings %v, tids column holds %v", d.tidSet, tids)
	}
	if z != d.zone {
		t.Fatalf("header zone %+v, rows span %+v", d.zone, z)
	}
	if !bytes.Equal(encodeSegment(&st, z), buf) {
		t.Fatalf("accepted a non-canonical encoding (%d bytes)", len(buf))
	}
}

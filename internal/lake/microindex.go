// Microindexes: per-segment secondary indexes sealed next to the
// segment at flush (and compaction) time, so point lookups open only
// segments that actually contain the key. One `idx-NNNNNN.ipx` file
// holds two sorted postings lists for its segment — the distinct
// observed IP address strings and the distinct torrent IDs. Zone maps
// bound ranges; postings prove membership — the scan planner consults
// postings after the (free) zone-map check and before opening the
// segment, which is what turns "every observation of IP x" from a
// whole-lake read into an O(1)-segment lookup on lakes where x is rare.
// Indexes are an optimization, never a source of truth: a segment whose
// index file is damaged or missing stays fully readable, pruned on its
// zone maps alone.
//
// All integers are little-endian. Layout:
//
//	magic   "BTLKIX1\n"                     8 bytes
//	nIPs    u32    nTIDs u32                8
//	IP postings:  nIPs × (u32 len + bytes), strictly ascending
//	TID postings: nTIDs × i32, strictly ascending
//	crc32c  u32 over everything above       4
package lake

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"

	"btpub/internal/dataset"
)

const idxMagic = "BTLKIX1\n"

// idxHeaderLen is the byte length of the fixed header (magic + counts).
const idxHeaderLen = 8 + 8

// microindex is one segment's decoded postings. Immutable once built;
// safe for concurrent readers.
type microindex struct {
	ips  []string // strictly ascending
	tids []int32  // strictly ascending
}

// buildMicroindex collects a sealed builder store's postings. The
// intern table holds exactly the distinct addresses the segment
// observed (entries are only created on first sight), so the IP
// postings are the sorted table.
func buildMicroindex(s *dataset.ObsStore) *microindex {
	ips := s.IPs()
	x := &microindex{ips: make([]string, ips.Len())}
	for i := range x.ips {
		x.ips[i] = ips.String(uint32(i))
	}
	sort.Strings(x.ips)
	seen := make(map[int32]struct{})
	for i := 0; i < s.Len(); i++ {
		seen[int32(s.TorrentID(i))] = struct{}{}
	}
	x.tids = make([]int32, 0, len(seen))
	for tid := range seen {
		x.tids = append(x.tids, tid)
	}
	slices.Sort(x.tids)
	return x
}

// buildMicroindexFromSeg rebuilds the postings a decoded segment should
// carry — Verify compares this against the sealed index file.
func buildMicroindexFromSeg(d *segData) *microindex {
	x := &microindex{ips: append([]string(nil), d.ips...)}
	sort.Strings(x.ips)
	seen := make(map[int32]struct{})
	for _, tid := range d.tids {
		seen[tid] = struct{}{}
	}
	x.tids = make([]int32, 0, len(seen))
	for tid := range seen {
		x.tids = append(x.tids, tid)
	}
	slices.Sort(x.tids)
	return x
}

// hasIP reports whether the segment observed the address.
func (x *microindex) hasIP(ip string) bool {
	_, ok := slices.BinarySearch(x.ips, ip)
	return ok
}

// hasAnyIP reports whether the segment observed any of the (sorted)
// addresses.
func (x *microindex) hasAnyIP(ips []string) bool {
	if len(ips) == 1 {
		return x.hasIP(ips[0])
	}
	return intersectsSorted(x.ips, ips)
}

// hasAnyTID reports whether the segment holds any of the (sorted)
// torrent IDs.
func (x *microindex) hasAnyTID(tids []int32) bool {
	return intersectsSorted(x.tids, tids)
}

// intersectsSorted reports whether two strictly ascending slices share
// an element, walking both in lockstep.
func intersectsSorted[T interface{ ~int32 | ~string }](a, b []T) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// equal reports whether two indexes carry identical postings.
func (x *microindex) equal(o *microindex) bool {
	return slices.Equal(x.ips, o.ips) && slices.Equal(x.tids, o.tids)
}

// encodeMicroindex serializes postings in the canonical layout.
func encodeMicroindex(x *microindex) []byte {
	size := idxHeaderLen + 4*len(x.ips) + 4*len(x.tids) + 4
	for _, ip := range x.ips {
		size += len(ip)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, idxMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(x.ips)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(x.tids)))
	for _, ip := range x.ips {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ip)))
		buf = append(buf, ip...)
	}
	for _, tid := range x.tids {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(tid))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	return buf
}

// CorruptIndexError reports a microindex file whose bytes fail
// validation. Unlike a corrupt segment, a corrupt index loses no data —
// scans fall back to zone-map pruning.
type CorruptIndexError struct {
	File   string
	Reason string
}

func (e *CorruptIndexError) Error() string {
	return fmt.Sprintf("lake: corrupt microindex %s: %s", e.File, e.Reason)
}

// decodeMicroindex parses and CRC-verifies one index file's bytes.
// Postings must be in canonical (strictly ascending) order, so every
// valid encoding is the unique encoding of its contents.
func decodeMicroindex(file string, buf []byte) (*microindex, error) {
	fail := func(reason string) (*microindex, error) {
		return nil, &CorruptIndexError{File: file, Reason: reason}
	}
	if len(buf) < idxHeaderLen+4 {
		return fail(fmt.Sprintf("file too short (%d bytes)", len(buf)))
	}
	if string(buf[:8]) != idxMagic {
		return fail("bad magic")
	}
	body, footer := buf[:len(buf)-4], buf[len(buf)-4:]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(footer); got != want {
		return fail(fmt.Sprintf("CRC mismatch (stored %08x, computed %08x)", want, got))
	}
	nIPs := int(binary.LittleEndian.Uint32(buf[8:]))
	nTIDs := int(binary.LittleEndian.Uint32(buf[12:]))
	p := idxHeaderLen
	x := &microindex{ips: make([]string, nIPs), tids: make([]int32, nTIDs)}
	for i := 0; i < nIPs; i++ {
		if p+4 > len(body) {
			return fail("truncated IP postings")
		}
		l := int(binary.LittleEndian.Uint32(body[p:]))
		p += 4
		if l < 0 || p+l > len(body) {
			return fail("IP posting overruns file")
		}
		x.ips[i] = string(body[p : p+l])
		p += l
		if i > 0 && x.ips[i-1] >= x.ips[i] {
			return fail(fmt.Sprintf("IP postings not strictly ascending at %d", i))
		}
	}
	if p+4*nTIDs != len(body) {
		return fail(fmt.Sprintf("TID area is %d bytes, want %d", len(body)-p, 4*nTIDs))
	}
	for i := 0; i < nTIDs; i++ {
		x.tids[i] = int32(binary.LittleEndian.Uint32(body[p:]))
		p += 4
		if i > 0 && x.tids[i-1] >= x.tids[i] {
			return fail(fmt.Sprintf("TID postings not strictly ascending at %d", i))
		}
	}
	return x, nil
}

// Segment files: the immutable columnar unit of the lake. One file holds
// one sealed batch of observations in the same four-column layout as
// dataset.ObsStore — torrent ID, IP, unix-nanosecond timestamp, seeder
// bitset — behind a fixed-size zone-map header (min/max time, min/max
// torrent ID) and two sorted dictionaries, the distinct addresses and
// the distinct torrent IDs, and terminated by a CRC-32C footer over
// every preceding byte. The two key columns store dictionary positions,
// so a key that is not in its dictionary is on no row: the dictionaries
// are the segment's postings, which the scan planner holds a point
// lookup against before it decodes a single row (see scan.go). The zone
// maps are duplicated into the journal so scans prune segments without
// touching the file at all; the in-file copy makes a segment
// self-describing, and every read checks the two against each other.
//
// All fixed-width integers are little-endian:
//
//	magic   "BTLKSG3\n"                     8 bytes
//	rows    u32    nIPs u32                 8
//	minAt   i64    maxAt i64                16
//	minTID  i32    maxTID i32               8
//	nTIDs   u32                             4
//	atScale  uvarint (GCD of timestamp deltas, >= 1)
//	IP dictionary:  nIPs × (uvarint len + bytes), strictly ascending
//	TID dictionary: nTIDs × zigzag-varint delta from the previous entry
//	          (first from 0), strictly ascending
//	tids:     rows × zigzag-varint delta of the row's TID-dictionary
//	          position from the previous row's (first from 0)
//	ipIdx:    rows × uvarint position in the IP dictionary
//	atNs:     zigzag-varint first value, then (rows-1) × zigzag-varint
//	          of (delta from previous row) / atScale
//	seeder:   ceil(rows/64) × u64
//	crc32c   u32 over everything above      4
//
// Torrent IDs arrive clustered, timestamps of successive probes differ
// by whole probe periods (the GCD factors that period out), and
// dictionary positions are small — so the varint columns cost a few
// bytes per observation. Every valid file is the unique encoding of its
// contents: the decoder rejects non-minimal varints, a scale that is not
// the GCD, an unused TID-dictionary entry, set padding bits and a header
// that disagrees with the columns.
package lake

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strings"

	"btpub/internal/dataset"
)

const segMagic = "BTLKSG3\n"

// segHeaderLen is the byte length of the fixed header (magic, counts and
// zone maps).
const segHeaderLen = 8 + 8 + 16 + 8 + 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// zone is a segment's pruning metadata, stored in both the segment header
// and the manifest entry.
type zone struct {
	Rows    int   `json:"rows"`
	MinAtNs int64 `json:"min_at_ns"`
	MaxAtNs int64 `json:"max_at_ns"`
	MinTID  int32 `json:"min_tid"`
	MaxTID  int32 `json:"max_tid"`
}

func emptyZone() zone {
	return zone{MinAtNs: math.MaxInt64, MaxAtNs: math.MinInt64, MinTID: math.MaxInt32, MaxTID: math.MinInt32}
}

func (z *zone) add(tid int32, atNs int64) {
	z.Rows++
	if atNs < z.MinAtNs {
		z.MinAtNs = atNs
	}
	if atNs > z.MaxAtNs {
		z.MaxAtNs = atNs
	}
	if tid < z.MinTID {
		z.MinTID = tid
	}
	if tid > z.MaxTID {
		z.MaxTID = tid
	}
}

// union widens z to cover o's rows too.
func (z *zone) union(o zone) {
	z.Rows += o.Rows
	z.MinAtNs, z.MaxAtNs = min(z.MinAtNs, o.MinAtNs), max(z.MaxAtNs, o.MaxAtNs)
	z.MinTID, z.MaxTID = min(z.MinTID, o.MinTID), max(z.MaxTID, o.MaxTID)
}

// postings are a segment's two dictionaries: what the planner needs to
// prove a key absent without decoding a row.
type postings struct {
	ips    []string // strictly ascending; the ipIdx column indexes it
	tidSet []int32  // strictly ascending; the tids column's distinct values
}

// hasAnyIP reports whether the segment observed any of the (sorted)
// addresses.
func (p *postings) hasAnyIP(ips []string) bool {
	if len(ips) == 1 {
		_, ok := slices.BinarySearch(p.ips, ips[0])
		return ok
	}
	return intersectsSorted(p.ips, ips)
}

// hasAnyTID reports whether the segment holds any of the (sorted)
// torrent IDs.
func (p *postings) hasAnyTID(tids []int32) bool {
	return intersectsSorted(p.tidSet, tids)
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

// segData is a decoded segment: its dictionaries, the zone its header
// declares (checked against the columns) and plain columns. Immutable
// once decoded; safe for concurrent readers.
type segData struct {
	postings
	zone  zone
	tids  []int32
	ipIdx []uint32
	atNs  []int64
	seed  []uint64
}

func (d *segData) rows() int           { return len(d.tids) }
func (d *segData) seeder(i int32) bool { return d.seed[i>>6]&(1<<(uint(i)&63)) != 0 }

// appendSegHeader writes the fixed header.
func appendSegHeader(buf []byte, nIPs, nTIDs int, z zone) []byte {
	buf = append(buf, segMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(z.Rows))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(nIPs))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(z.MinAtNs))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(z.MaxAtNs))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(z.MinTID))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(z.MaxTID))
	return binary.LittleEndian.AppendUint32(buf, uint32(nTIDs))
}

// appendSeedWords packs the seeder column into raw u64 words (the one
// column that is already a bitset — nothing to compress).
func appendSeedWords(buf []byte, s *dataset.ObsStore, n int) []byte {
	bits := make([]uint64, (n+63)/64)
	for i := 0; i < n; i++ {
		if s.Seeder(i) {
			bits[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	for _, w := range bits {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// encodeSegment serializes a sealed builder store whose zone is z. The
// store's columns are walked through the exported ObsStore accessors, so
// the lake never depends on dataset internals.
func encodeSegment(s *dataset.ObsStore, z zone) []byte {
	n := s.Len()
	ips := s.IPs()
	// The builder interns addresses in arrival order; the file holds them
	// sorted. byStr lists the builder's indices in string order and
	// ipRank maps each to its place there.
	byStr := make([]uint32, ips.Len())
	for i := range byStr {
		byStr[i] = uint32(i)
	}
	slices.SortFunc(byStr, func(a, b uint32) int { return strings.Compare(ips.String(a), ips.String(b)) })
	ipRank := make([]uint32, len(byStr))
	for r, idx := range byStr {
		ipRank[idx] = uint32(r)
	}
	tidRank := make(map[int32]int64)
	for i := 0; i < n; i++ {
		tidRank[int32(s.TorrentID(i))] = 0
	}
	tidSet := make([]int32, 0, len(tidRank))
	for tid := range tidRank {
		tidSet = append(tidSet, tid)
	}
	slices.Sort(tidSet)
	for r, tid := range tidSet {
		tidRank[tid] = int64(r)
	}
	// Timestamps of successive rows differ by whole probe periods; the
	// GCD of the deltas factors that period out so each delta varint is
	// a small multiple count instead of a nanosecond count.
	var scale int64 = 1
	if n > 1 {
		var g int64
		prev := s.UnixNano(0)
		for i := 1; i < n; i++ {
			at := s.UnixNano(i)
			g = gcd64(g, at-prev)
			prev = at
		}
		if g > 1 {
			scale = g
		}
	}
	buf := make([]byte, 0, segHeaderLen+4*n)
	buf = appendSegHeader(buf, len(byStr), len(tidSet), z)
	buf = binary.AppendUvarint(buf, uint64(scale))
	for _, idx := range byStr {
		str := ips.String(idx)
		buf = binary.AppendUvarint(buf, uint64(len(str)))
		buf = append(buf, str...)
	}
	var prevT int64
	for _, tid := range tidSet {
		buf = binary.AppendVarint(buf, int64(tid)-prevT)
		prevT = int64(tid)
	}
	var prevR int64
	for i := 0; i < n; i++ {
		r := tidRank[int32(s.TorrentID(i))]
		buf = binary.AppendVarint(buf, r-prevR)
		prevR = r
	}
	for i := 0; i < n; i++ {
		buf = binary.AppendUvarint(buf, uint64(ipRank[s.IPIndex(i)]))
	}
	if n > 0 {
		buf = binary.AppendVarint(buf, s.UnixNano(0))
		prev := s.UnixNano(0)
		for i := 1; i < n; i++ {
			at := s.UnixNano(i)
			buf = binary.AppendVarint(buf, (at-prev)/scale)
			prev = at
		}
	}
	buf = appendSeedWords(buf, s, n)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	return buf
}

// gcd64 returns gcd(|a|, |b|); gcd(0, b) = |b|.
func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a < 0 {
		a = -a
	}
	return a
}

// CorruptSegmentError reports a segment file whose bytes fail validation.
type CorruptSegmentError struct {
	File   string
	Reason string
}

func (e *CorruptSegmentError) Error() string {
	return fmt.Sprintf("lake: corrupt segment %s: %s", e.File, e.Reason)
}

// decodeSegment parses and CRC-verifies one segment file's bytes, and
// accepts only the canonical encoding of what it decodes.
func decodeSegment(file string, buf []byte) (*segData, error) {
	fail := func(reason string) (*segData, error) {
		return nil, &CorruptSegmentError{File: file, Reason: reason}
	}
	if len(buf) < segHeaderLen+4 {
		return fail(fmt.Sprintf("file too short (%d bytes)", len(buf)))
	}
	if string(buf[:8]) != segMagic {
		return fail("bad magic")
	}
	body, footer := buf[:len(buf)-4], buf[len(buf)-4:]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(footer); got != want {
		return fail(fmt.Sprintf("CRC mismatch (stored %08x, computed %08x)", want, got))
	}
	rows := int(binary.LittleEndian.Uint32(buf[8:]))
	nIPs := int(binary.LittleEndian.Uint32(buf[12:]))
	nTIDs := int(binary.LittleEndian.Uint32(buf[40:]))
	if rows < 0 || nIPs < 0 || nTIDs < 0 || rows > len(body) || nIPs > len(body) || nTIDs > len(body) {
		// Bound the allocations below by the file size: a column can
		// never hold more entries than the file has bytes.
		return fail(fmt.Sprintf("implausible counts (rows %d, ips %d, tids %d in %d bytes)", rows, nIPs, nTIDs, len(buf)))
	}
	d := &segData{
		postings: postings{ips: make([]string, nIPs), tidSet: make([]int32, nTIDs)},
		zone: zone{
			Rows:    rows,
			MinAtNs: int64(binary.LittleEndian.Uint64(buf[16:])),
			MaxAtNs: int64(binary.LittleEndian.Uint64(buf[24:])),
			MinTID:  int32(binary.LittleEndian.Uint32(buf[32:])),
			MaxTID:  int32(binary.LittleEndian.Uint32(buf[36:])),
		},
		tids:  make([]int32, rows),
		ipIdx: make([]uint32, rows),
		atNs:  make([]int64, rows),
		seed:  make([]uint64, (rows+63)/64),
	}
	if err := decodeColumns(d, body); err != nil {
		return fail(err.Error())
	}
	return d, nil
}

var errVarint = errors.New("truncated or non-minimal varint")

// decodeColumns parses the area after the header into d's preallocated
// dictionaries and columns.
func decodeColumns(d *segData, body []byte) error {
	p := segHeaderLen
	// A varint whose last byte carries no bits is a longer spelling of a
	// value the encoder writes shorter. (Both readers stay small enough
	// to inline into the row loops: the error is a fixed value.)
	uv := func() (uint64, error) {
		v, sz := binary.Uvarint(body[p:])
		if sz <= 0 || sz > 1 && body[p+sz-1] == 0 {
			return 0, errVarint
		}
		p += sz
		return v, nil
	}
	sv := func() (int64, error) {
		v, sz := binary.Varint(body[p:])
		if sz <= 0 || sz > 1 && body[p+sz-1] == 0 {
			return 0, errVarint
		}
		p += sz
		return v, nil
	}
	us, err := uv()
	if err != nil {
		return err
	}
	if us == 0 || us > math.MaxInt64 {
		return fmt.Errorf("bad timestamp scale %d", us)
	}
	scale := int64(us)
	// The dictionary is walked twice: first to find where it ends, so one
	// allocation can hold every address, then to cut that allocation into
	// the entries (a string per address costs a decode a quarter of its
	// time on a compacted segment).
	dict := p
	for range d.ips {
		l, err := uv()
		if err != nil {
			return err
		}
		if l > uint64(len(body)-p) {
			return fmt.Errorf("IP string overruns file")
		}
		p += int(l)
	}
	all := string(body[dict:p])
	for i, q := 0, 0; i < len(d.ips); i++ {
		l, sz := binary.Uvarint(body[dict+q:])
		q += sz + int(l)
		d.ips[i] = all[q-int(l) : q]
		if i > 0 && d.ips[i-1] >= d.ips[i] {
			return fmt.Errorf("IP dictionary not strictly ascending at %d", i)
		}
	}
	var prevT int64
	for i := range d.tidSet {
		dv, err := sv()
		if err != nil {
			return err
		}
		if i > 0 && dv <= 0 {
			return fmt.Errorf("TID dictionary not strictly ascending at %d", i)
		}
		prevT += dv
		if prevT < math.MinInt32 || prevT > math.MaxInt32 {
			return fmt.Errorf("TID dictionary entry %d = %d out of range", i, prevT)
		}
		d.tidSet[i] = int32(prevT)
	}
	used := make([]bool, len(d.tidSet))
	var prevR int64
	for i := range d.tids {
		dv, err := sv()
		if err != nil {
			return err
		}
		prevR += dv
		if prevR < 0 || prevR >= int64(len(d.tidSet)) {
			return fmt.Errorf("row %d references TID entry %d of %d", i, prevR, len(d.tidSet))
		}
		d.tids[i] = d.tidSet[prevR]
		used[prevR] = true
	}
	if i := slices.Index(used, false); i >= 0 {
		return fmt.Errorf("TID dictionary entry %d (%d) is on no row", i, d.tidSet[i])
	}
	for i := range d.ipIdx {
		idx, err := uv()
		if err != nil {
			return err
		}
		if idx >= uint64(len(d.ips)) {
			return fmt.Errorf("row %d references IP index %d of %d", i, idx, len(d.ips))
		}
		d.ipIdx[i] = uint32(idx)
	}
	// got is the zone the columns span, held against the header below;
	// every TID dictionary entry is on a row, so its ends are the TID
	// bounds. g accumulates the GCD of the scaled deltas: the encoder
	// factored the whole GCD out, so anything but 1 (or no non-zero delta
	// at scale 1) is a scale it would not have chosen.
	got := emptyZone()
	got.Rows = d.rows()
	var g int64
	if got.Rows > 0 {
		got.MinTID, got.MaxTID = d.tidSet[0], d.tidSet[len(d.tidSet)-1]
		first, err := sv()
		if err != nil {
			return err
		}
		d.atNs[0] = first
		prev, minAt, maxAt := first, first, first
		lo, hi := math.MinInt64/scale, math.MaxInt64/scale
		for i := 1; i < len(d.atNs); i++ {
			dv, err := sv()
			if err != nil {
				return err
			}
			if dv < lo || dv > hi {
				return fmt.Errorf("row %d timestamp delta %d overflows at scale %d", i, dv, scale)
			}
			if g != 1 {
				g = gcd64(g, dv)
			}
			prev += dv * scale
			d.atNs[i] = prev
			minAt, maxAt = min(minAt, prev), max(maxAt, prev)
		}
		got.MinAtNs, got.MaxAtNs = minAt, maxAt
	}
	if g != 1 && (g != 0 || scale != 1) {
		return fmt.Errorf("timestamp scale %d is not the GCD of the deltas", scale)
	}
	if len(body)-p != 8*len(d.seed) {
		return fmt.Errorf("seeder area is %d bytes, want %d", len(body)-p, 8*len(d.seed))
	}
	for i := range d.seed {
		d.seed[i] = binary.LittleEndian.Uint64(body[p:])
		p += 8
	}
	if pad := uint(d.rows()) & 63; pad != 0 && d.seed[len(d.seed)-1]>>pad != 0 {
		return fmt.Errorf("seeder padding bits set")
	}
	if got != d.zone {
		return fmt.Errorf("header zone %+v disagrees with the columns' %+v", d.zone, got)
	}
	return nil
}

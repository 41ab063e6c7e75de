// Segment files: the immutable columnar unit of the lake. One file holds
// one sealed batch of observations in the same four-column layout as
// dataset.ObsStore — torrent ID, segment-local interned-IP index,
// unix-nanosecond timestamp, seeder bitset — prefixed by the segment's
// intern table and a fixed-size zone-map header (min/max time, min/max
// torrent ID) and terminated by a CRC-32C footer over every preceding
// byte. The zone maps are duplicated into the journal so scans prune
// segments without touching the file at all; the in-file copy exists so
// a segment is self-describing for recovery and verification.
//
// All fixed-width integers are little-endian:
//
//	magic   "BTLKSG2\n"                     8 bytes
//	rows    u32    nIPs u32                 8
//	minAt   i64    maxAt i64                16
//	minTID  i32    maxTID i32               8
//	reserved, written zero and ignored      8
//	atScale  uvarint (GCD of timestamp deltas, >= 1)
//	IP table: nIPs × (uvarint len + bytes)
//	tids:     rows × zigzag-varint delta from the previous row (first from 0)
//	ipIdx:    rows × uvarint
//	atNs:     zigzag-varint first value, then (rows-1) × zigzag-varint
//	          of (delta from previous row) / atScale
//	seeder:   ceil(rows/64) × u64
//	crc32c   u32 over everything above      4
//
// Torrent IDs are dense and arrive clustered, timestamps of successive
// probes differ by whole probe periods (the GCD factors that period out),
// and intern indices are small — so the varint columns cost a few bytes
// per observation.
package lake

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"btpub/internal/dataset"
)

const segMagic = "BTLKSG2\n"

// segHeaderLen is the byte length of the fixed header (magic, zone maps
// and 8 reserved bytes).
const segHeaderLen = 8 + 8 + 16 + 8 + 8

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

// segData is a decoded segment: plain columns plus the segment-local
// intern table. Immutable once decoded; safe for concurrent readers.
type segData struct {
	ips   []string
	tids  []int32
	ipIdx []uint32
	atNs  []int64
	seed  []uint64
}

func (d *segData) rows() int           { return len(d.tids) }
func (d *segData) seeder(i int32) bool { return d.seed[i>>6]&(1<<(uint(i)&63)) != 0 }

// appendSegHeader writes the fixed header.
func appendSegHeader(buf []byte, n, nIPs int, z zone) []byte {
	buf = append(buf, segMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(nIPs))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(z.MinAtNs))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(z.MaxAtNs))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(z.MinTID))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(z.MaxTID))
	return binary.LittleEndian.AppendUint64(buf, 0) // reserved
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

// encodeSegment serializes a sealed builder store. The store's columns
// are walked through the exported ObsStore accessors, so the lake never
// depends on dataset internals.
func encodeSegment(s *dataset.ObsStore, z zone) []byte {
	n := s.Len()
	ips := s.IPs()
	nIPs := ips.Len()
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
	buf = appendSegHeader(buf, n, nIPs, z)
	buf = binary.AppendUvarint(buf, uint64(scale))
	for i := 0; i < nIPs; i++ {
		str := ips.String(uint32(i))
		buf = binary.AppendUvarint(buf, uint64(len(str)))
		buf = append(buf, str...)
	}
	var prevT int64
	for i := 0; i < n; i++ {
		t := int64(s.TorrentID(i))
		buf = binary.AppendVarint(buf, t-prevT)
		prevT = t
	}
	for i := 0; i < n; i++ {
		buf = binary.AppendUvarint(buf, uint64(s.IPIndex(i)))
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

// decodeSegment parses and CRC-verifies one segment file's bytes.
func decodeSegment(file string, buf []byte) (*segData, zone, error) {
	fail := func(reason string) (*segData, zone, error) {
		return nil, zone{}, &CorruptSegmentError{File: file, Reason: reason}
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
	z := zone{
		Rows:    rows,
		MinAtNs: int64(binary.LittleEndian.Uint64(buf[16:])),
		MaxAtNs: int64(binary.LittleEndian.Uint64(buf[24:])),
		MinTID:  int32(binary.LittleEndian.Uint32(buf[32:])),
		MaxTID:  int32(binary.LittleEndian.Uint32(buf[36:])),
	}
	if rows < 0 || nIPs < 0 || rows > len(body) || nIPs > len(body) {
		// Bound the allocations below by the file size: a column can
		// never hold more entries than the file has bytes.
		return fail(fmt.Sprintf("implausible counts (rows %d, ips %d in %d bytes)", rows, nIPs, len(buf)))
	}
	d := &segData{
		ips:   make([]string, nIPs),
		tids:  make([]int32, rows),
		ipIdx: make([]uint32, rows),
		atNs:  make([]int64, rows),
		seed:  make([]uint64, (rows+63)/64),
	}
	if err := decodeColumns(d, body, nIPs); err != nil {
		return fail(err.Error())
	}
	return d, z, nil
}

// decodeColumns parses the compressed column area after the header.
func decodeColumns(d *segData, body []byte, nIPs int) error {
	p := segHeaderLen
	uv := func() (uint64, error) {
		v, sz := binary.Uvarint(body[p:])
		if sz <= 0 {
			return 0, fmt.Errorf("truncated varint at offset %d", p)
		}
		p += sz
		return v, nil
	}
	sv := func() (int64, error) {
		v, sz := binary.Varint(body[p:])
		if sz <= 0 {
			return 0, fmt.Errorf("truncated varint at offset %d", p)
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
	for i := 0; i < nIPs; i++ {
		l, err := uv()
		if err != nil {
			return err
		}
		if l > uint64(len(body)-p) {
			return fmt.Errorf("IP string overruns file")
		}
		d.ips[i] = string(body[p : p+int(l)])
		p += int(l)
	}
	var prevT int64
	for i := range d.tids {
		dv, err := sv()
		if err != nil {
			return err
		}
		prevT += dv
		if prevT < math.MinInt32 || prevT > math.MaxInt32 {
			return fmt.Errorf("row %d torrent ID %d out of range", i, prevT)
		}
		d.tids[i] = int32(prevT)
	}
	for i := range d.ipIdx {
		idx, err := uv()
		if err != nil {
			return err
		}
		if idx >= uint64(nIPs) {
			return fmt.Errorf("row %d references IP index %d of %d", i, idx, nIPs)
		}
		d.ipIdx[i] = uint32(idx)
	}
	if len(d.atNs) > 0 {
		first, err := sv()
		if err != nil {
			return err
		}
		d.atNs[0] = first
		prev := first
		for i := 1; i < len(d.atNs); i++ {
			dv, err := sv()
			if err != nil {
				return err
			}
			prev += dv * scale
			d.atNs[i] = prev
		}
	}
	if len(body)-p != 8*len(d.seed) {
		return fmt.Errorf("seeder area is %d bytes, want %d", len(body)-p, 8*len(d.seed))
	}
	for i := range d.seed {
		d.seed[i] = binary.LittleEndian.Uint64(body[p:])
		p += 8
	}
	return nil
}

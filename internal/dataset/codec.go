// JSONL persistence: a header line, then one line per torrent record, then
// one line per observation, then one line per user record.
//
// Observation lines dominate any real dataset, so they get hand-rolled
// append-based encode/decode fast paths. The fast paths are byte-identical
// to what encoding/json emits for the same line structs (the golden and
// fuzz tests in codec_test.go hold them to that); anything the fast-path
// decoder does not recognise falls back to encoding/json, so exotic input
// is slower, never wrong. Record lines go through encoding/json once: the
// decoder reads their kind from the encoder's fixed line prefix.
//
// One normalization: timestamps are stored as unix-nanosecond instants, so
// an observation read with a non-UTC offset is re-encoded as the same
// instant in UTC. The crawler and simulator only ever produce UTC.
package dataset

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"
)

type lineKind struct {
	Kind string `json:"kind"`
}

type headerLine struct {
	Kind  string    `json:"kind"`
	Name  string    `json:"name"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
}

type torrentLine struct {
	Kind string `json:"kind"`
	*TorrentRecord
}

type obsLine struct {
	Kind string `json:"kind"`
	Observation
}

type userLine struct {
	Kind string `json:"kind"`
	UserRecord
}

// obsPrefix is the invariant head of every observation line the encoder
// emits: struct field order is fixed, so the decoder can key on it.
const obsPrefix = `{"kind":"obs","t":`

// torrentPrefix and userPrefix head every record line the encoder emits;
// the decoder takes such a line's kind from them instead of decoding the
// line once more just to learn it.
var (
	torrentPrefix = []byte(`{"kind":"torrent",`)
	userPrefix    = []byte(`{"kind":"user",`)
)

// Write streams the dataset to w as JSON Lines.
func (d *Dataset) Write(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(headerLine{Kind: "header", Name: d.Name, Start: d.Start, End: d.End}); err != nil {
		return err
	}
	for _, t := range d.Torrents {
		if err := enc.Encode(torrentLine{Kind: "torrent", TorrentRecord: t}); err != nil {
			return err
		}
	}
	buf := make([]byte, 0, 128)
	s := &d.Obs
	for i := 0; i < s.Len(); i++ {
		var err error
		buf, err = appendObsLine(buf[:0], s.tids[i], s.IPString(i), s.atNs[i], s.Seeder(i))
		if err != nil {
			return err
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	for _, u := range d.Users {
		if err := enc.Encode(userLine{Kind: "user", UserRecord: u}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendObsLine appends one observation line (including the trailing
// newline), byte-identical to json.Encoder on obsLine.
func appendObsLine(buf []byte, tid int32, ip string, atNs int64, seeder bool) ([]byte, error) {
	buf = append(buf, obsPrefix...)
	buf = strconv.AppendInt(buf, int64(tid), 10)
	buf = append(buf, `,"ip":`...)
	buf = appendJSONString(buf, ip)
	buf = append(buf, `,"at":"`...)
	t := time.Unix(0, atNs).UTC()
	if y := t.Year(); y < 0 || y >= 10000 {
		// Matches time.Time.MarshalJSON's RFC 3339 guard.
		return nil, errors.New("dataset: observation timestamp year outside [0,9999]")
	}
	buf = t.AppendFormat(buf, time.RFC3339Nano)
	buf = append(buf, '"')
	if seeder {
		buf = append(buf, `,"s":true`...)
	}
	buf = append(buf, '}', '\n')
	return buf, nil
}

// appendJSONString appends s as a JSON string. The fast path covers the
// plain-ASCII alphabet every IP address lives in; anything needing escapes
// (including the <, >, & that encoding/json HTML-escapes by default) takes
// the encoding/json fallback so the bytes stay identical.
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, err := json.Marshal(s)
			if err != nil {
				// Marshal of a string cannot fail; keep the signature simple.
				panic("dataset: marshal string: " + err.Error())
			}
			return append(buf, b...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// parseObsLine decodes a fast-path observation line (no trailing newline).
// ok=false means the line is not in the encoder's canonical shape and the
// caller must fall back to encoding/json. ip aliases line; callers copy
// before retaining.
func parseObsLine(line []byte) (tid int64, ip []byte, atNs int64, seeder bool, ok bool) {
	if len(line) < len(obsPrefix) || string(line[:len(obsPrefix)]) != obsPrefix {
		return 0, nil, 0, false, false
	}
	rest := line[len(obsPrefix):]
	tid, rest, ok = parseInt(rest)
	if !ok {
		return 0, nil, 0, false, false
	}
	const ipKey = `,"ip":"`
	if len(rest) < len(ipKey) || string(rest[:len(ipKey)]) != ipKey {
		return 0, nil, 0, false, false
	}
	rest = rest[len(ipKey):]
	end := -1
	for i := 0; i < len(rest); i++ {
		c := rest[i]
		if c == '"' {
			end = i
			break
		}
		// Accept exactly the characters the encoder's no-escape fast path
		// emits verbatim; escapes, control bytes, HTML-escaped chars and
		// non-ASCII take the reflection path.
		if c < 0x20 || c >= 0x7f || c == '\\' || c == '<' || c == '>' || c == '&' {
			return 0, nil, 0, false, false
		}
	}
	if end < 0 {
		return 0, nil, 0, false, false
	}
	ip = rest[:end]
	rest = rest[end+1:]
	const atKey = `,"at":"`
	if len(rest) < len(atKey) || string(rest[:len(atKey)]) != atKey {
		return 0, nil, 0, false, false
	}
	rest = rest[len(atKey):]
	end = -1
	for i := 0; i < len(rest); i++ {
		if rest[i] == '"' {
			end = i
			break
		}
		if rest[i] == '\\' {
			return 0, nil, 0, false, false
		}
	}
	if end < 0 {
		return 0, nil, 0, false, false
	}
	at, ok := parseCanonicalUTC(rest[:end])
	if !ok {
		return 0, nil, 0, false, false
	}
	// Only canonical UTC timestamps — exactly what the encoder emits —
	// take the fast path; any other spelling (offsets, odd fractions,
	// out-of-range field values that time.Date would normalize) falls back
	// to encoding/json so the two decoders can never diverge: the
	// re-format must reproduce the input byte for byte. Instants the
	// unix-nano column cannot hold fall back too, and the general path
	// reports them.
	atNs, err := UnixNano(at)
	if err != nil {
		return 0, nil, 0, false, false
	}
	var tmp [48]byte
	if canon := at.AppendFormat(tmp[:0], time.RFC3339Nano); string(canon) != string(rest[:end]) {
		return 0, nil, 0, false, false
	}
	rest = rest[end+1:]
	switch string(rest) {
	case "}":
	case `,"s":true}`:
		seeder = true
	case `,"s":false}`:
	default:
		return 0, nil, 0, false, false
	}
	return tid, ip, atNs, seeder, true
}

// parseCanonicalUTC decodes "2006-01-02T15:04:05[.fraction]Z" from bytes
// without the string conversion time.Parse would force. Field-range abuse
// (e.g. month 13) survives time.Date normalization but is rejected by the
// caller's canonical re-format comparison.
func parseCanonicalUTC(b []byte) (time.Time, bool) {
	if len(b) < 20 || b[4] != '-' || b[7] != '-' || b[10] != 'T' ||
		b[13] != ':' || b[16] != ':' || b[len(b)-1] != 'Z' {
		return time.Time{}, false
	}
	year, ok1 := atoi(b[0:4])
	month, ok2 := atoi(b[5:7])
	day, ok3 := atoi(b[8:10])
	hour, ok4 := atoi(b[11:13])
	minute, ok5 := atoi(b[14:16])
	sec, ok6 := atoi(b[17:19])
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6) {
		return time.Time{}, false
	}
	ns := 0
	if frac := b[19 : len(b)-1]; len(frac) > 0 {
		if frac[0] != '.' || len(frac) > 10 {
			return time.Time{}, false
		}
		scale := 1_000_000_000
		for _, c := range frac[1:] {
			if c < '0' || c > '9' {
				return time.Time{}, false
			}
			scale /= 10
			ns += int(c-'0') * scale
		}
	}
	return time.Date(year, time.Month(month), day, hour, minute, sec, ns, time.UTC), true
}

func atoi(b []byte) (int, bool) {
	v := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	return v, true
}

// parseInt reads a canonical JSON integer — no leading zeros, no "-0" —
// exactly the form strconv.AppendInt emits.
func parseInt(b []byte) (int64, []byte, bool) {
	neg := false
	i := 0
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	start := i
	var v int64
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		d := int64(b[i] - '0')
		if v > (1<<62)/10 {
			return 0, nil, false // overflow: not a torrent ID we ever wrote
		}
		v = v*10 + d
		i++
	}
	if i == start {
		return 0, nil, false
	}
	if b[start] == '0' && (i > start+1 || neg) {
		return 0, nil, false
	}
	if neg {
		v = -v
	}
	return v, b[i:], true
}

// Read loads a dataset from JSONL.
func Read(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	d := &Dataset{}
	sawHeader := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		// Fast path: canonical observation lines skip encoding/json
		// entirely — one prefix compare, two scans, one time parse.
		if tid, ip, atNs, seeder, ok := parseObsLine(line); ok {
			if tid < 0 || tid > MaxTorrentID {
				return nil, fmt.Errorf("dataset: line %d: torrent ID %d out of range", lineNo, tid)
			}
			d.Obs.push(int32(tid), d.Obs.ips.internBytes(ip), atNs, seeder)
			continue
		}
		// Record lines in the encoder's shape decode once. The kind check
		// keeps encoding/json's rule (the last "kind" key wins), and a
		// line that fails here takes the general path below, which
		// reports the error.
		if bytes.HasPrefix(line, torrentPrefix) {
			t := torrentLine{TorrentRecord: &TorrentRecord{}}
			if err := json.Unmarshal(line, &t); err == nil && t.Kind == "torrent" {
				d.Torrents = append(d.Torrents, t.TorrentRecord)
				continue
			}
		} else if bytes.HasPrefix(line, userPrefix) {
			var u userLine
			if err := json.Unmarshal(line, &u); err == nil && u.Kind == "user" {
				d.Users = append(d.Users, u.UserRecord)
				continue
			}
		}
		var k lineKind
		if err := json.Unmarshal(line, &k); err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", lineNo, err)
		}
		switch k.Kind {
		case "header":
			var h headerLine
			if err := json.Unmarshal(line, &h); err != nil {
				return nil, fmt.Errorf("dataset: header: %w", err)
			}
			d.Name, d.Start, d.End = h.Name, h.Start, h.End
			sawHeader = true
		case "torrent":
			var t torrentLine
			t.TorrentRecord = &TorrentRecord{}
			if err := json.Unmarshal(line, &t); err != nil {
				return nil, fmt.Errorf("dataset: line %d: %w", lineNo, err)
			}
			d.Torrents = append(d.Torrents, t.TorrentRecord)
		case "obs":
			var o obsLine
			if err := json.Unmarshal(line, &o); err != nil {
				return nil, fmt.Errorf("dataset: line %d: %w", lineNo, err)
			}
			if o.TorrentID < 0 || int64(o.TorrentID) > MaxTorrentID {
				return nil, fmt.Errorf("dataset: line %d: torrent ID %d out of range", lineNo, o.TorrentID)
			}
			atNs, err := UnixNano(o.At)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d: %w", lineNo, err)
			}
			d.Obs.push(int32(o.TorrentID), d.Obs.ips.InternString(o.IP), atNs, o.Seeder)
		case "user":
			var u userLine
			if err := json.Unmarshal(line, &u); err != nil {
				return nil, fmt.Errorf("dataset: line %d: %w", lineNo, err)
			}
			d.Users = append(d.Users, u.UserRecord)
		default:
			return nil, fmt.Errorf("dataset: line %d: unknown kind %q", lineNo, k.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawHeader {
		return nil, errors.New("dataset: missing header line")
	}
	return d, nil
}

// Save writes the dataset to a file.
func (d *Dataset) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a dataset from a file.
func Load(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

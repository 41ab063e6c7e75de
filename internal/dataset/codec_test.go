package dataset

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// legacyWrite is the original reflection-based encoder this package used
// before the columnar store: one json.Encoder line per record. The
// hand-rolled fast paths must reproduce its output byte for byte.
func legacyWrite(t *testing.T, d *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriterSize(&buf, 1<<16)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(headerLine{Kind: "header", Name: d.Name, Start: d.Start, End: d.End}); err != nil {
		t.Fatal(err)
	}
	for _, tr := range d.Torrents {
		if err := enc.Encode(torrentLine{Kind: "torrent", TorrentRecord: tr}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < d.NumObservations(); i++ {
		if err := enc.Encode(obsLine{Kind: "obs", Observation: d.Obs.At(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range d.Users {
		if err := enc.Encode(userLine{Kind: "user", UserRecord: u}); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// trickyDataset exercises the encoder edge cases: escape-needing strings
// (including the <,>,& that encoding/json HTML-escapes), fractional-second
// timestamps with trailing-zero trimming, seeder flags on and off, and an
// empty address.
func trickyDataset() *Dataset {
	d := &Dataset{Name: "tricky", Start: t0, End: t0.AddDate(0, 1, 0)}
	d.AddTorrent(&TorrentRecord{TorrentID: 0, InfoHash: strings.Repeat("ef", 20), Published: t0})
	d.AddObservation(Observation{TorrentID: 0, IP: "10.0.0.1", At: t0, Seeder: true})
	d.AddObservation(Observation{TorrentID: 0, IP: "10.0.0.1", At: t0.Add(90*time.Minute + 123456789*time.Nanosecond)})
	d.AddObservation(Observation{TorrentID: 0, IP: "10.0.0.1", At: t0.Add(2*time.Hour + 500*time.Millisecond)})
	d.AddObservation(Observation{TorrentID: 0, IP: `weird "ip" <with> & \escapes\`, At: t0.Add(3 * time.Hour)})
	d.AddObservation(Observation{TorrentID: 0, IP: "snowman-\u2603", At: t0.Add(4 * time.Hour)})
	d.AddObservation(Observation{TorrentID: 0, IP: "", At: t0.Add(5 * time.Hour)})
	d.AddObservation(Observation{TorrentID: 1<<31 - 1, IP: "2001:db8::1", At: t0.Add(6 * time.Hour)})
	return d
}

func TestWriteMatchesLegacyEncoder(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    *Dataset
	}{
		{"sample", sampleDataset()},
		{"tricky", trickyDataset()},
		{"empty", &Dataset{Name: "empty", Start: t0, End: t0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got bytes.Buffer
			if err := tc.d.Write(&got); err != nil {
				t.Fatal(err)
			}
			want := legacyWrite(t, tc.d)
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("fast-path output differs from legacy encoder:\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
			}
		})
	}
}

// TestGoldenRoundTrip pins the on-disk format to a checked-in file: the
// sample dataset must serialize to exactly the bytes the pre-columnar
// encoder emitted, and reading those bytes back must reproduce them.
func TestGoldenRoundTrip(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	d := sampleDataset()
	d.Users = append(d.Users,
		UserRecord{Username: "ultratorrents07", Exists: true, MemberSince: t0.AddDate(-2, 0, 0), FirstUpload: t0.AddDate(-1, -11, 0), TotalUploads: 4000},
		UserRecord{Username: "xk2j9qpa"})
	var out bytes.Buffer
	if err := d.Write(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), golden) {
		t.Fatalf("serialization drifted from golden file:\ngot:\n%s\nwant:\n%s", out.Bytes(), golden)
	}
	back, err := Read(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := back.Write(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), golden) {
		t.Fatalf("golden file did not round-trip byte-identically:\ngot:\n%s", again.Bytes())
	}
}

// TestReadFastAndSlowAgree feeds every observation line of a written
// dataset through both decoders and requires identical stores.
func TestReadFastAndSlowAgree(t *testing.T) {
	d := trickyDataset()
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumObservations() != d.NumObservations() {
		t.Fatalf("lost observations: %d vs %d", got.NumObservations(), d.NumObservations())
	}
	for i := 0; i < d.NumObservations(); i++ {
		want, have := d.Obs.At(i), got.Obs.At(i)
		if want.TorrentID != have.TorrentID || want.IP != have.IP ||
			!want.At.Equal(have.At) || want.Seeder != have.Seeder {
			t.Fatalf("observation %d mismatch: %+v vs %+v", i, want, have)
		}
	}
}

// TestReadRecordLineShapes: a record line decodes to the same record
// whether or not it starts with the encoder's kind prefix, the last
// "kind" key decides the line's kind (encoding/json's rule), and a
// malformed prefixed line is an error naming its line.
func TestReadRecordLineShapes(t *testing.T) {
	header := `{"kind":"header","name":"x","start":"2010-04-06T00:00:00Z","end":"2010-04-07T00:00:00Z"}` + "\n"
	d, err := Read(strings.NewReader(header +
		`{"kind":"torrent","torrent_id":3,"info_hash":"aa","published":"2010-04-06T01:00:00Z","removed":true}` + "\n" +
		`{"torrent_id":3,"info_hash":"aa","kind":"torrent","published":"2010-04-06T01:00:00Z","removed":true}` + "\n" +
		`{"kind":"torrent","username":"dup","kind":"user"}` + "\n" +
		`{"kind":"user","username":"u1","exists":true,"total_uploads":4}` + "\n" +
		`{"exists":true,"username":"u1","total_uploads":4,"kind":"user"}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Torrents) != 2 || !reflect.DeepEqual(d.Torrents[0], d.Torrents[1]) || d.Torrents[0].TorrentID != 3 || !d.Torrents[0].Removed {
		t.Fatalf("torrent lines decoded to %d records: %+v", len(d.Torrents), d.Torrents)
	}
	want := []UserRecord{{Username: "dup"}, {Username: "u1", Exists: true, TotalUploads: 4}, {Username: "u1", Exists: true, TotalUploads: 4}}
	if !slices.Equal(d.Users, want) {
		t.Fatalf("user lines decoded to %+v, want %+v", d.Users, want)
	}
	for _, line := range []string{`{"kind":"torrent","size_bytes":"big"}`, `{"kind":"user","exists":1}`, `{"kind":"torrent",`} {
		if _, err := Read(strings.NewReader(header + line + "\n")); err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("line %s: err %v, want an error naming line 2", line, err)
		}
	}
}

// TestReadRejectsOutOfRangeTorrentIDs: the columnar store keys dense
// int32 sequence numbers, so corrupt IDs must fail the load, not panic
// later index builds or silently truncate.
func TestReadRejectsOutOfRangeTorrentIDs(t *testing.T) {
	header := `{"kind":"header","name":"x","start":"2010-04-06T00:00:00Z","end":"2010-04-07T00:00:00Z"}` + "\n"
	for _, line := range []string{
		`{"kind":"obs","t":-1,"ip":"1.2.3.4","at":"2010-04-06T01:00:00Z"}`,
		`{"kind":"obs","t":4294967296,"ip":"1.2.3.4","at":"2010-04-06T01:00:00Z"}`,
		`{"kind":"obs","ip":"1.2.3.4","t":-7,"at":"2010-04-06T01:00:00Z"}`, // json fallback path
		// Instants the unix-nanosecond column cannot hold must error, not
		// silently overflow UnixNano.
		`{"kind":"obs","t":0,"ip":"1.2.3.4","at":"2500-01-01T00:00:00Z"}`,
		`{"kind":"obs","t":0,"ip":"1.2.3.4","at":"1500-01-01T00:00:00Z"}`,
	} {
		if _, err := Read(strings.NewReader(header + line + "\n")); err == nil {
			t.Errorf("accepted corrupt observation line %s", line)
		}
	}
}

// FuzzObsLineDecode proves the hand-rolled observation-line decoder is a
// strict subset of encoding/json: whenever the fast path accepts a line,
// the reflection decoder must accept it too and produce the same record,
// and re-encoding the parsed fields must reproduce the line.
func FuzzObsLineDecode(f *testing.F) {
	f.Add([]byte(`{"kind":"obs","t":0,"ip":"11.0.0.7","at":"2010-04-06T03:00:00Z","s":true}`))
	f.Add([]byte(`{"kind":"obs","t":7,"ip":"20.1.2.3","at":"2010-04-06T04:00:00Z"}`))
	f.Add([]byte(`{"kind":"obs","t":7,"ip":"20.1.2.3","at":"2010-04-06T04:00:00.123456789Z"}`))
	f.Add([]byte(`{"kind":"obs","t":7,"ip":"20.1.2.3","at":"2010-04-06T04:00:00.5Z","s":false}`))
	f.Add([]byte(`{"kind":"obs","t":-3,"ip":"","at":"1970-01-01T00:00:00Z"}`))
	f.Add([]byte(`{"kind":"obs","t":2147483647,"ip":"2001:db8::1","at":"2262-04-11T23:47:16Z"}`))
	f.Add([]byte(`{"kind":"obs","t":1,"ip":"a\u0041b","at":"2010-04-06T03:00:00Z"}`))
	f.Add([]byte(`{"kind":"obs","t":1,"ip":"x","at":"2010-04-06T03:00:00+02:00"}`))
	f.Add([]byte(`{"kind":"obs","t":1,"ip":"x","at":"2010-04-06T03:00:00,5Z"}`))
	f.Add([]byte(`{"t":1,"kind":"obs","ip":"x","at":"2010-04-06T03:00:00Z"}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		tid, ip, atNs, seeder, ok := parseObsLine(line)
		if !ok {
			return
		}
		var o obsLine
		if err := json.Unmarshal(line, &o); err != nil {
			t.Fatalf("fast path accepted what encoding/json rejects: %q (%v)", line, err)
		}
		if o.Kind != "obs" {
			t.Fatalf("fast path accepted non-obs line %q", line)
		}
		if int64(o.TorrentID) != tid || o.IP != string(ip) || o.At.UnixNano() != atNs || o.Seeder != seeder {
			t.Fatalf("decoders disagree on %q:\nfast: t=%d ip=%q at=%d s=%v\njson: %+v",
				line, tid, ip, atNs, seeder, o)
		}
		if tid >= -(1<<31) && tid < 1<<31 && !seederFalseEncoded(line) {
			enc, err := appendObsLine(nil, int32(tid), string(ip), atNs, seeder)
			if err != nil {
				t.Fatalf("re-encode failed for %q: %v", line, err)
			}
			if string(enc) != string(line)+"\n" {
				t.Fatalf("re-encode differs:\nin:  %q\nout: %q", line, enc)
			}
		}
	})
}

// seederFalseEncoded reports a line carrying an explicit "s":false — valid
// input that the encoder (omitempty) never produces, so re-encoding it is
// legitimately shorter.
func seederFalseEncoded(line []byte) bool {
	return bytes.Contains(line, []byte(`,"s":false`))
}

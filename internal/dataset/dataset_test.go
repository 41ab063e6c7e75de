package dataset

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)

func sampleDataset() *Dataset {
	d := &Dataset{Name: "pb10-test", Start: t0, End: t0.AddDate(0, 1, 0)}
	d.AddTorrent(&TorrentRecord{
		TorrentID: 0, InfoHash: strings.Repeat("ab", 20),
		Title: "Some.Movie.2010", Category: "Video > Movies",
		SizeBytes: 700 << 20, FileName: "Some.Movie.2010.avi",
		Username: "ultratorrents07", PublisherIP: "11.0.0.7",
		Published: t0.Add(3 * time.Hour), FirstSeenSeeders: 1, FirstSeenPeers: 4,
		Description:  "visit www.ultratorrents.com",
		BundledFiles: []string{"Visit www.ultratorrents.com.txt"},
	})
	d.AddTorrent(&TorrentRecord{
		TorrentID: 1, InfoHash: strings.Repeat("cd", 20),
		Title: "Fake.Release", Category: "Video > Movies",
		Published: t0.Add(5 * time.Hour), FirstSeenSeeders: 1, FirstSeenPeers: 2,
		Username: "xk2j9qpa", Removed: true,
	})
	d.AddObservation(Observation{TorrentID: 0, IP: "11.0.0.7", At: t0.Add(3 * time.Hour), Seeder: true})
	d.AddObservation(Observation{TorrentID: 0, IP: "20.1.2.3", At: t0.Add(4 * time.Hour)})
	d.AddObservation(Observation{TorrentID: 0, IP: "20.1.2.3", At: t0.Add(5 * time.Hour)})
	d.AddObservation(Observation{TorrentID: 1, IP: "20.9.9.9", At: t0.Add(6 * time.Hour)})
	return d
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := sampleDataset()
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != d.Name || !got.Start.Equal(d.Start) || !got.End.Equal(d.End) {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Torrents) != 2 || got.NumObservations() != 4 {
		t.Fatalf("sizes = %d/%d", len(got.Torrents), got.NumObservations())
	}
	if !reflect.DeepEqual(got.Torrents[0], d.Torrents[0]) {
		t.Fatalf("torrent record mismatch:\n%+v\n%+v", got.Torrents[0], d.Torrents[0])
	}
	if got.Obs.At(3) != d.Obs.At(3) {
		t.Fatalf("observation mismatch: %+v vs %+v", got.Obs.At(3), d.Obs.At(3))
	}
}

func TestSaveLoadFile(t *testing.T) {
	d := sampleDataset()
	path := filepath.Join(t.TempDir(), "ds.jsonl")
	if err := d.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.DistinctIPs() != d.DistinctIPs() {
		t.Fatal("file round trip changed content")
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",                             // no header
		"{\"kind\":\"obs\",\"t\":0}\n", // observation before header is fine? No: missing header entirely
		"not json\n",
		"{\"kind\":\"martian\"}\n",
	}
	for i, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestDistinctIPs(t *testing.T) {
	d := sampleDataset()
	if got := d.DistinctIPs(); got != 3 {
		t.Fatalf("distinct IPs = %d, want 3", got)
	}
}

func TestCounters(t *testing.T) {
	d := sampleDataset()
	if got := d.TorrentsWithUsername(); got != 2 {
		t.Fatalf("with username = %d", got)
	}
	if got := d.TorrentsWithIP(); got != 1 {
		t.Fatalf("with IP = %d", got)
	}
}

func TestParseIP(t *testing.T) {
	if _, err := ParseIP("11.0.0.7"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseIP("not-an-ip"); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestEmptyDatasetRoundTrip(t *testing.T) {
	d := &Dataset{Name: "empty", Start: t0, End: t0}
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Torrents) != 0 || got.NumObservations() != 0 || got.Name != "empty" {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestLargeDatasetStreamRoundTrip(t *testing.T) {
	d := &Dataset{Name: "big", Start: t0, End: t0.AddDate(0, 1, 0)}
	for i := 0; i < 500; i++ {
		d.AddTorrent(&TorrentRecord{TorrentID: i, InfoHash: strings.Repeat("00", 20), Published: t0})
		for j := 0; j < 20; j++ {
			d.AddObservation(Observation{TorrentID: i, IP: "10.0.0.1", At: t0})
		}
	}
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Torrents) != 500 || got.NumObservations() != 10000 {
		t.Fatalf("sizes = %d/%d", len(got.Torrents), got.NumObservations())
	}
}

func TestMergeCanonicalOrderAndRemap(t *testing.T) {
	// Two shards whose torrents interleave in publication time and whose
	// local IDs collide.
	a := &Dataset{Name: "shard0", Start: t0, End: t0.AddDate(0, 1, 0)}
	a.AddTorrent(&TorrentRecord{TorrentID: 0, InfoHash: strings.Repeat("dd", 20), Published: t0.Add(4 * time.Hour)})
	a.AddObservation(Observation{TorrentID: 0, IP: "10.0.0.1", At: t0.Add(5 * time.Hour)})
	a.Users = append(a.Users, UserRecord{Username: "zeta"})

	b := &Dataset{Name: "shard1", Start: t0, End: t0.AddDate(0, 1, 0)}
	b.AddTorrent(&TorrentRecord{TorrentID: 0, InfoHash: strings.Repeat("aa", 20), Published: t0.Add(2 * time.Hour)})
	b.AddTorrent(&TorrentRecord{TorrentID: 1, InfoHash: strings.Repeat("bb", 20), Published: t0.Add(6 * time.Hour)})
	b.AddObservation(Observation{TorrentID: 1, IP: "10.0.0.2", At: t0.Add(7 * time.Hour)})
	b.AddObservation(Observation{TorrentID: 0, IP: "10.0.0.3", At: t0.Add(3 * time.Hour)})
	b.Users = append(b.Users, UserRecord{Username: "alpha"})

	m := Merge("merged", a, b)
	if m.Name != "merged" {
		t.Fatalf("name = %q", m.Name)
	}
	wantHashes := []string{strings.Repeat("aa", 20), strings.Repeat("dd", 20), strings.Repeat("bb", 20)}
	for i, want := range wantHashes {
		if m.Torrents[i].InfoHash != want {
			t.Fatalf("torrent %d = %s, want %s", i, m.Torrents[i].InfoHash, want)
		}
		if m.Torrents[i].TorrentID != i {
			t.Fatalf("torrent %d renumbered to %d", i, m.Torrents[i].TorrentID)
		}
	}
	// Observations remapped to the canonical IDs and sorted by time.
	wantObs := []struct {
		id int
		ip string
	}{{0, "10.0.0.3"}, {1, "10.0.0.1"}, {2, "10.0.0.2"}}
	if m.NumObservations() != len(wantObs) {
		t.Fatalf("%d observations, want %d", m.NumObservations(), len(wantObs))
	}
	for i, want := range wantObs {
		got := m.Obs.At(i)
		if got.TorrentID != want.id || got.IP != want.ip {
			t.Fatalf("obs %d = {t%d %s}, want {t%d %s}", i, got.TorrentID, got.IP, want.id, want.ip)
		}
	}
	if m.Users[0].Username != "alpha" || m.Users[1].Username != "zeta" {
		t.Fatalf("users not sorted: %+v", m.Users)
	}
	// Source parts must be untouched (records copied before renumbering).
	if b.Torrents[1].TorrentID != 1 {
		t.Fatalf("merge mutated source part: %d", b.Torrents[1].TorrentID)
	}
}

func TestMergeSplitEqualsWhole(t *testing.T) {
	d := sampleDataset()
	d.Users = append(d.Users,
		UserRecord{Username: "xk2j9qpa"},
		UserRecord{Username: "ultratorrents07", Exists: true})

	// Split the sample by torrent into two shard-shaped parts with local IDs.
	a := &Dataset{Name: d.Name, Start: d.Start, End: d.End}
	b := &Dataset{Name: d.Name, Start: d.Start, End: d.End}
	for _, tr := range d.Torrents {
		cp := *tr
		part := a
		if tr.TorrentID%2 == 1 {
			part = b
		}
		cp.TorrentID = len(part.Torrents)
		for i := 0; i < d.NumObservations(); i++ {
			if o := d.Obs.At(i); o.TorrentID == tr.TorrentID {
				o.TorrentID = cp.TorrentID
				part.AddObservation(o)
			}
		}
		part.AddTorrent(&cp)
		if cp.Username != "" {
			for _, u := range d.Users {
				if u.Username == cp.Username {
					part.Users = append(part.Users, u)
				}
			}
		}
	}

	var whole, split bytes.Buffer
	if err := Merge(d.Name, d).Write(&whole); err != nil {
		t.Fatal(err)
	}
	if err := Merge(d.Name, a, b).Write(&split); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole.Bytes(), split.Bytes()) {
		t.Fatalf("split merge differs from whole merge:\n%s\n---\n%s", whole.String(), split.String())
	}
}

// advanceBy advances the canonical dataset prev by one shard-shaped batch
// (local torrent IDs) through AppendRecords, MergeUsers and AdvanceObs —
// the incremental counterpart of Merge(name, <prev's input>, batch). The
// batch's records must append.
func advanceBy(t *testing.T, prev, batch *Dataset) *Dataset {
	t.Helper()
	recs, addIDs, err := AppendRecords(prev.Torrents, batch.Torrents)
	if err != nil {
		t.Fatal(err)
	}
	local := map[int]int32{}
	for j, r := range batch.Torrents {
		local[r.TorrentID] = addIDs[j]
	}
	var d DeltaObs
	for i := 0; i < batch.Obs.Len(); i++ {
		o := batch.Obs.At(i)
		d.Append(local[o.TorrentID], o.IP, o.At.UnixNano(), o.Seeder)
	}
	out := &Dataset{Torrents: recs, Users: MergeUsers(prev.Users, batch.Users)}
	AdvanceObs(&out.Obs, &prev.Obs, &d)
	return out
}

// TestAdvanceEqualsMerge: advancing a canonical dataset by a batch whose
// records append serialises exactly as Merge over the combined input,
// wherever the batch's users and observations fall in their canonical
// orders — including records and users whose sort keys collide, where
// Merge's stable order (input order) is what the advance must reproduce.
func TestAdvanceEqualsMerge(t *testing.T) {
	base := sampleDataset()
	base.Users = append(base.Users,
		UserRecord{Username: "xk2j9qpa"},
		UserRecord{Username: "ultratorrents07", Exists: true})
	at := func(h float64) time.Time { return t0.Add(time.Duration(h * float64(time.Hour))) }
	rec := func(id int, hash string, pubHour float64, user string) *TorrentRecord {
		return &TorrentRecord{TorrentID: id, InfoHash: strings.Repeat(hash, 20), Published: at(pubHour), Username: user}
	}
	batch := func(recs []*TorrentRecord, users []UserRecord, obs ...Observation) *Dataset {
		b := &Dataset{Name: base.Name, Start: base.Start, End: base.End, Torrents: recs, Users: users}
		for _, o := range obs {
			b.AddObservation(o)
		}
		return b
	}
	for _, tc := range []struct {
		name  string
		base  *Dataset
		batch *Dataset
	}{
		{"append-at-end", base, batch(
			[]*TorrentRecord{rec(0, "ee", 9, "late"), rec(1, "ef", 8, "late")},
			[]UserRecord{{Username: "zz-last", Exists: true}},
			Observation{TorrentID: 0, IP: "30.0.0.1", At: at(10)},
			Observation{TorrentID: 1, IP: "20.1.2.3", At: at(9), Seeder: true})},
		{"interleaved", base, batch(
			[]*TorrentRecord{rec(0, "bb", 6, "mid"), rec(1, "aa", 5.5, "early"), rec(2, "ff", 7, "late")},
			[]UserRecord{{Username: "mid"}, {Username: "aaa-first", Exists: true}},
			Observation{TorrentID: 0, IP: "20.1.2.3", At: at(4)}, // ties an old row's time
			Observation{TorrentID: 1, IP: "10.0.0.9", At: at(2)}, // before every old row
			Observation{TorrentID: 0, IP: "20.1.2.3", At: at(5)}, // same time and IP as an old row
			Observation{TorrentID: 2, IP: "20.9.9.9", At: at(8)}, // after every old row
			Observation{TorrentID: 1, IP: "10.0.0.9", At: at(2)}, // exact duplicate row
			Observation{TorrentID: 1, IP: "10.0.0.9", At: at(2), Seeder: true})},
		{"from-empty", &Dataset{Name: base.Name, Start: base.Start, End: base.End}, base},
		{"duplicate-keys", base, batch(
			// Torrent 0 collides with base's last record, 1 and 2 with each
			// other; each copy owns a distinguishable observation.
			[]*TorrentRecord{rec(0, "cd", 5, "dup-of-old"), rec(1, "cc", 6, "dup-a"), rec(2, "cc", 6, "dup-b")},
			[]UserRecord{{Username: "xk2j9qpa", Exists: true}, {Username: "dup-a", Exists: true}, {Username: "dup-a"}},
			Observation{TorrentID: 0, IP: "40.0.0.1", At: at(6)},
			Observation{TorrentID: 1, IP: "40.0.0.2", At: at(6)},
			Observation{TorrentID: 2, IP: "40.0.0.3", At: at(6)})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := Merge(base.Name, tc.base, tc.batch)
			got := advanceBy(t, Merge(base.Name, tc.base), tc.batch)
			got.Name, got.Start, got.End = want.Name, want.Start, want.End
			var w, g bytes.Buffer
			if err := want.Write(&w); err != nil {
				t.Fatal(err)
			}
			if err := got.Write(&g); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w.Bytes(), g.Bytes()) {
				t.Fatalf("advance differs from Merge over the combined input:\n%s\n---\n%s", g.String(), w.String())
			}
		})
	}
}

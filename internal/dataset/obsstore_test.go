package dataset

import (
	"net/netip"
	"testing"
	"time"
)

func TestIPTableInternSharing(t *testing.T) {
	var tab IPTable
	a := tab.InternString("10.0.0.1")
	b := tab.InternAddr(netip.MustParseAddr("10.0.0.1"))
	if a != b {
		t.Fatalf("string and addr interning diverged: %d vs %d", a, b)
	}
	c := tab.InternString("10.0.0.2")
	if c == a {
		t.Fatal("distinct addresses shared an index")
	}
	if tab.Len() != 2 {
		t.Fatalf("table size = %d, want 2", tab.Len())
	}
	if tab.String(a) != "10.0.0.1" || !tab.Addr(a).IsValid() {
		t.Fatalf("entry %d = %q/%v", a, tab.String(a), tab.Addr(a))
	}
	// Invalid addresses intern too (string identity), with a zero Addr.
	d := tab.InternString("not-an-ip")
	if tab.Addr(d).IsValid() {
		t.Fatal("garbage string produced a valid Addr")
	}
	if i, ok := tab.Lookup("10.0.0.2"); !ok || i != c {
		t.Fatalf("Lookup = %d,%v", i, ok)
	}
	if _, ok := tab.Lookup("10.0.0.3"); ok {
		t.Fatal("Lookup invented an entry")
	}
}

func TestObsStoreSeederBitsetAcrossWords(t *testing.T) {
	var s ObsStore
	for i := 0; i < 200; i++ {
		s.Append(Observation{TorrentID: 0, IP: "10.0.0.1", At: t0, Seeder: i%3 == 0})
	}
	for i := 0; i < 200; i++ {
		if s.Seeder(i) != (i%3 == 0) {
			t.Fatalf("seeder bit %d flipped", i)
		}
	}
	if s.IPs().Len() != 1 {
		t.Fatalf("interning failed: %d entries", s.IPs().Len())
	}
}

func TestObsIndexRepairsUnsortedSpans(t *testing.T) {
	var s ObsStore
	// Torrent 1's observations arrive out of time order.
	s.Append(Observation{TorrentID: 1, IP: "a", At: t0.Add(3 * time.Hour)})
	s.Append(Observation{TorrentID: 0, IP: "b", At: t0})
	s.Append(Observation{TorrentID: 1, IP: "c", At: t0.Add(1 * time.Hour)})
	s.Append(Observation{TorrentID: 1, IP: "d", At: t0.Add(2 * time.Hour)})
	ix := s.Index()
	span := ix.Span(1)
	if len(span) != 3 {
		t.Fatalf("span = %v", span)
	}
	for i := 1; i < len(span); i++ {
		if s.UnixNano(int(span[i])) < s.UnixNano(int(span[i-1])) {
			t.Fatalf("span not time-sorted: %v", span)
		}
	}
	if got := ix.Span(99); len(got) != 0 {
		t.Fatalf("unknown torrent span = %v", got)
	}
	// The cached index survives until the store grows.
	if s.Index() != ix {
		t.Fatal("index rebuilt without appends")
	}
	s.Append(Observation{TorrentID: 0, IP: "e", At: t0})
	if s.Index() == ix {
		t.Fatal("index not rebuilt after append")
	}
}

func TestDistinctIPCountsMatchesNaive(t *testing.T) {
	var s ObsStore
	obs := []Observation{
		{TorrentID: 0, IP: "x", At: t0},
		{TorrentID: 0, IP: "x", At: t0.Add(time.Minute)},
		{TorrentID: 0, IP: "y", At: t0.Add(2 * time.Minute)},
		{TorrentID: 2, IP: "x", At: t0},
		{TorrentID: 2, IP: "z", At: t0},
		{TorrentID: 2, IP: "z", At: t0.Add(time.Hour)},
	}
	naive := map[int]map[string]bool{}
	for _, o := range obs {
		s.Append(o)
		if naive[o.TorrentID] == nil {
			naive[o.TorrentID] = map[string]bool{}
		}
		naive[o.TorrentID][o.IP] = true
	}
	counts := s.DistinctIPCounts()
	if len(counts) != 3 {
		t.Fatalf("slots = %d, want 3 (torrent 1 empty)", len(counts))
	}
	for tid, want := range map[int]int{0: 2, 1: 0, 2: 2} {
		if counts[tid] != want {
			t.Fatalf("torrent %d distinct = %d, want %d (naive %d)",
				tid, counts[tid], want, len(naive[tid]))
		}
	}
}

// TestMergeCountsDroppedObservations is the silent-data-loss guard: an
// observation whose TorrentID matches no torrent record must be counted,
// not silently discarded.
func TestMergeCountsDroppedObservations(t *testing.T) {
	good := &Dataset{Name: "good", Start: t0, End: t0.Add(time.Hour)}
	good.AddTorrent(&TorrentRecord{TorrentID: 0, InfoHash: "aa", Published: t0})
	good.AddObservation(Observation{TorrentID: 0, IP: "10.0.0.1", At: t0})

	buggy := &Dataset{Name: "buggy", Start: t0, End: t0.Add(time.Hour)}
	buggy.AddTorrent(&TorrentRecord{TorrentID: 0, InfoHash: "bb", Published: t0})
	buggy.AddObservation(Observation{TorrentID: 0, IP: "10.0.0.2", At: t0})
	buggy.AddObservation(Observation{TorrentID: 7, IP: "10.0.0.3", At: t0}) // no torrent 7
	buggy.AddObservation(Observation{TorrentID: 9, IP: "10.0.0.4", At: t0}) // no torrent 9

	m := Merge("m", good, buggy)
	if m.DroppedObservations != 2 {
		t.Fatalf("DroppedObservations = %d, want 2", m.DroppedObservations)
	}
	if m.NumObservations() != 2 {
		t.Fatalf("kept %d observations, want 2", m.NumObservations())
	}
	// Addresses seen only in dropped observations must not pollute the
	// merged intern table (DistinctIPs counts surviving sightings only).
	if m.DistinctIPs() != 2 {
		t.Fatalf("DistinctIPs = %d, want 2 (dropped IPs leaked into the table)", m.DistinctIPs())
	}
	clean := Merge("m2", good)
	if clean.DroppedObservations != 0 {
		t.Fatalf("clean merge reported %d dropped", clean.DroppedObservations)
	}
}

// TestAppendPathsRefuseOutOfRangeTimestamps: both in-memory append paths
// panic on an instant the unix-nanosecond column cannot hold instead of
// storing a wrapped one, and UnixNano refuses it with an error.
func TestAppendPathsRefuseOutOfRangeTimestamps(t *testing.T) {
	addr := netip.MustParseAddr("10.0.0.1")
	for _, at := range []time.Time{{}, time.Date(2262, 1, 1, 0, 0, 0, 0, time.UTC)} {
		if _, err := UnixNano(at); err == nil {
			t.Errorf("UnixNano(%v) accepted", at)
		}
		for name, add := range map[string]func(*ObsStore){
			"Append":     func(s *ObsStore) { s.Append(Observation{TorrentID: 1, IP: addr.String(), At: at}) },
			"AppendAddr": func(s *ObsStore) { s.AppendAddr(1, addr, at, false) },
		} {
			var s ObsStore
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s at %v did not panic", name, at)
					}
				}()
				add(&s)
			}()
			if s.Len() != 0 {
				t.Errorf("%s at %v stored %d rows (first at %d ns)", name, at, s.Len(), s.UnixNano(0))
			}
		}
	}
}

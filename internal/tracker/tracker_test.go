package tracker

import (
	"context"
	"errors"
	"net/http/httptest"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"btpub/internal/metainfo"
	"btpub/internal/swarm"
)

// stubStore serves a fixed member list for one hash.
type stubStore struct {
	ih       metainfo.Hash
	members  []swarm.Member
	seeders  int
	leechers int
}

func (s *stubStore) Snapshot(ih metainfo.Hash, _ time.Time, maxPeers int) ([]swarm.Member, int, int, error) {
	if ih != s.ih {
		return nil, 0, 0, ErrUnknownSwarm
	}
	ms := s.members
	if len(ms) > maxPeers {
		ms = ms[:maxPeers]
	}
	return ms, s.seeders, s.leechers, nil
}

func testHash(b byte) metainfo.Hash {
	var h metainfo.Hash
	for i := range h {
		h[i] = b
	}
	return h
}

func makeMembers(n int) []swarm.Member {
	out := make([]swarm.Member, n)
	for i := range out {
		out[i] = swarm.Member{IP: netip.AddrFrom4([4]byte{11, 0, byte(i >> 8), byte(i)})}
	}
	return out
}

func newTestTracker(t *testing.T, st Store) (*Tracker, *time.Time) {
	t.Helper()
	now := time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)
	tr, err := New(st, func() time.Time { return now })
	if err != nil {
		t.Fatal(err)
	}
	return tr, &now
}

func TestAnnounceReturnsCountsAndPeers(t *testing.T) {
	st := &stubStore{ih: testHash(1), members: makeMembers(10), seeders: 3, leechers: 7}
	tr, _ := newTestTracker(t, st)
	resp, err := tr.Announce(&AnnounceRequest{
		InfoHash: testHash(1),
		NumWant:  50,
		Client:   netip.MustParseAddr("127.0.0.1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Seeders != 3 || resp.Leechers != 7 {
		t.Fatalf("counts = %d/%d", resp.Seeders, resp.Leechers)
	}
	if len(resp.Peers) != 10 {
		t.Fatalf("peers = %d, want 10", len(resp.Peers))
	}
	if resp.Interval <= 0 || resp.MinInterval <= 0 {
		t.Fatalf("intervals = %v/%v", resp.Interval, resp.MinInterval)
	}
}

func TestAnnounceUnknownHash(t *testing.T) {
	st := &stubStore{ih: testHash(1)}
	tr, _ := newTestTracker(t, st)
	_, err := tr.Announce(&AnnounceRequest{
		InfoHash: testHash(2),
		Client:   netip.MustParseAddr("127.0.0.1"),
	})
	if !errors.Is(err, ErrUnknownSwarm) {
		t.Fatalf("err = %v, want ErrUnknownSwarm", err)
	}
}

func TestNumWantClampedToMaxPeers(t *testing.T) {
	st := &stubStore{ih: testHash(1), members: makeMembers(500)}
	tr, _ := newTestTracker(t, st)
	resp, err := tr.Announce(&AnnounceRequest{
		InfoHash: testHash(1),
		NumWant:  100000,
		Client:   netip.MustParseAddr("127.0.0.1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Peers) != MaxPeers {
		t.Fatalf("peers = %d, want MaxPeers=%d", len(resp.Peers), MaxPeers)
	}
}

func TestDefaultNumWant(t *testing.T) {
	st := &stubStore{ih: testHash(1), members: makeMembers(500)}
	tr, _ := newTestTracker(t, st)
	resp, err := tr.Announce(&AnnounceRequest{
		InfoHash: testHash(1),
		Client:   netip.MustParseAddr("127.0.0.1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Peers) != DefaultNumWant {
		t.Fatalf("peers = %d, want %d", len(resp.Peers), DefaultNumWant)
	}
}

func TestRateLimitPerClientPerSwarm(t *testing.T) {
	st := &stubStore{ih: testHash(1), members: makeMembers(5)}
	tr, now := newTestTracker(t, st)
	a := netip.MustParseAddr("127.0.0.1")
	b := netip.MustParseAddr("127.0.0.2")
	req := func(c netip.Addr) *AnnounceRequest {
		return &AnnounceRequest{InfoHash: testHash(1), Client: c}
	}
	if _, err := tr.Announce(req(a)); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Announce(req(a)); !errors.Is(err, ErrTooSoon) {
		t.Fatalf("immediate re-announce: err = %v, want ErrTooSoon", err)
	}
	// A different vantage is not throttled.
	if _, err := tr.Announce(req(b)); err != nil {
		t.Fatalf("second vantage throttled: %v", err)
	}
	// After MinInterval the first client may announce again.
	*now = now.Add(MinInterval + time.Second)
	if _, err := tr.Announce(req(a)); err != nil {
		t.Fatalf("after interval: %v", err)
	}
}

func TestStoppedEventBypassesRateLimit(t *testing.T) {
	st := &stubStore{ih: testHash(1)}
	tr, _ := newTestTracker(t, st)
	a := netip.MustParseAddr("127.0.0.1")
	if _, err := tr.Announce(&AnnounceRequest{InfoHash: testHash(1), Client: a}); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Announce(&AnnounceRequest{InfoHash: testHash(1), Client: a, Event: "stopped"}); err != nil {
		t.Fatalf("stopped throttled: %v", err)
	}
}

func TestCompactPeersRoundTrip(t *testing.T) {
	in := []PeerAddr{
		{netip.MustParseAddr("11.0.0.1"), 6881},
		{netip.MustParseAddr("192.168.255.254"), 80},
	}
	blob, err := CompactPeers(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) != 12 {
		t.Fatalf("blob len = %d", len(blob))
	}
	out, err := ParseCompactPeers(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("round trip mismatch at %d: %v vs %v", i, in[i], out[i])
		}
	}
}

func TestCompactPeersRejectsIPv6AndBadLength(t *testing.T) {
	if _, err := CompactPeers([]PeerAddr{{netip.MustParseAddr("::1"), 1}}); err == nil {
		t.Fatal("IPv6 accepted")
	}
	if _, err := ParseCompactPeers(make([]byte, 7)); err == nil {
		t.Fatal("bad length accepted")
	}
}

// Property: compact round trip for arbitrary IPv4/port combinations.
func TestCompactRoundTripProperty(t *testing.T) {
	f := func(a, b, c, d byte, port uint16) bool {
		in := []PeerAddr{{netip.AddrFrom4([4]byte{a, b, c, d}), port}}
		blob, err := CompactPeers(in)
		if err != nil {
			return false
		}
		out, err := ParseCompactPeers(blob)
		return err == nil && len(out) == 1 && out[0] == in[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseAnnounceQuery(t *testing.T) {
	ih := testHash(0xAB)
	raw := "info_hash=" + escapeBytes(ih[:]) +
		"&peer_id=" + escapeBytes([]byte("-BT0001-abcdefghijkl")) +
		"&port=6881&numwant=77&event=started&compact=1"
	req, err := ParseAnnounceQuery(raw)
	if err != nil {
		t.Fatal(err)
	}
	if req.InfoHash != ih {
		t.Fatalf("info_hash mismatch")
	}
	if req.Port != 6881 || req.NumWant != 77 || req.Event != "started" || !req.Compact {
		t.Fatalf("parsed = %+v", req)
	}
}

func TestParseAnnounceQueryErrors(t *testing.T) {
	ih := testHash(1)
	cases := []string{
		"",              // no info_hash
		"info_hash=%41", // short hash
		"info_hash=" + escapeBytes(ih[:]) + "&info_hash=" + escapeBytes(ih[:]), // duplicate
		"info_hash=" + escapeBytes(ih[:]) + "&port=99999",                      // bad port
		"info_hash=" + escapeBytes(ih[:]) + "&numwant=xyz",                     // bad numwant
		"info_hash=" + escapeBytes(ih[:]) + "&event=exploded",                  // bad event
	}
	for _, raw := range cases {
		if _, err := ParseAnnounceQuery(raw); err == nil {
			t.Errorf("ParseAnnounceQuery(%q) succeeded", raw)
		}
	}
}

// End-to-end over real HTTP: server handler + client.
func TestHTTPAnnounceEndToEnd(t *testing.T) {
	st := &stubStore{ih: testHash(3), members: makeMembers(25), seeders: 4, leechers: 21}
	tr, _ := newTestTracker(t, st)
	srv := httptest.NewServer(&Handler{T: tr})
	defer srv.Close()

	cl := &Client{Vantage: netip.MustParseAddr("198.51.100.1")}
	var pid [20]byte
	copy(pid[:], "-BTPUB0-monitoring00")
	resp, err := cl.Announce(context.Background(), srv.URL+"/announce", testHash(3), pid, 200)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Seeders != 4 || resp.Leechers != 21 {
		t.Fatalf("counts = %d/%d", resp.Seeders, resp.Leechers)
	}
	if len(resp.Peers) != 25 {
		t.Fatalf("peers = %d, want 25", len(resp.Peers))
	}

	// Re-announcing immediately from the same vantage must be rate-limited.
	_, err = cl.Announce(context.Background(), srv.URL+"/announce", testHash(3), pid, 200)
	var fe *ErrFailure
	if !errors.As(err, &fe) || !fe.IsRateLimited() {
		t.Fatalf("err = %v, want rate-limit failure", err)
	}

	// A different vantage succeeds.
	cl2 := &Client{Vantage: netip.MustParseAddr("198.51.100.2")}
	if _, err := cl2.Announce(context.Background(), srv.URL+"/announce", testHash(3), pid, 200); err != nil {
		t.Fatalf("vantage 2: %v", err)
	}
}

func TestHTTPAnnounceUnknownHash(t *testing.T) {
	st := &stubStore{ih: testHash(3)}
	tr, _ := newTestTracker(t, st)
	srv := httptest.NewServer(&Handler{T: tr})
	defer srv.Close()
	cl := &Client{Vantage: netip.MustParseAddr("198.51.100.9")}
	var pid [20]byte
	_, err := cl.Announce(context.Background(), srv.URL+"/announce", testHash(8), pid, 10)
	var fe *ErrFailure
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want ErrFailure", err)
	}
}

func TestEncodeAnnounceResponseDictForm(t *testing.T) {
	resp := &AnnounceResponse{
		Interval: 900 * time.Second, MinInterval: 600 * time.Second,
		Seeders: 1, Leechers: 2,
		Peers: []PeerAddr{{netip.MustParseAddr("11.0.0.1"), 6881}},
	}
	body, err := EncodeAnnounceResponse(resp, false)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseAnnounceResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Peers) != 1 || parsed.Peers[0].IP != netip.MustParseAddr("11.0.0.1") {
		t.Fatalf("dict peers round trip = %+v", parsed.Peers)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, time.Now); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := New(&stubStore{}, nil); err == nil {
		t.Fatal("nil clock accepted")
	}
}

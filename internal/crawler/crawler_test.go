package crawler

import (
	"context"
	"errors"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"btpub/internal/dataset"
	"btpub/internal/metainfo"
	"btpub/internal/portal"
	"btpub/internal/sessions"
	"btpub/internal/simclock"
	"btpub/internal/swarm"
	"btpub/internal/tracker"
)

// TestConfigDefaults: the dedup window must stay below the session
// gap, or thinning would merge what stitching keeps apart.
func TestConfigDefaults(t *testing.T) {
	if gap := sessions.PaperThreshold(); dedupWindow >= gap {
		t.Fatalf("dedupWindow = %v must stay below the %v session gap", dedupWindow, gap)
	}
}

func TestHashFromURL(t *testing.T) {
	var ih metainfo.Hash
	for i := range ih {
		ih[i] = byte(i)
	}
	hex := ih.String()
	for _, url := range []string{
		"http://portal.sim/torrent/" + hex + ".torrent",
		"http://portal.sim/page/" + hex,
		hex,
	} {
		got, err := hashFromURL(url)
		if err != nil {
			t.Fatalf("hashFromURL(%q): %v", url, err)
		}
		if got != ih {
			t.Fatalf("hashFromURL(%q) = %s", url, got)
		}
	}
	for _, url := range []string{"", "http://x/torrent/zz.torrent", "http://x/page/1234"} {
		if _, err := hashFromURL(url); err == nil {
			t.Fatalf("hashFromURL(%q) succeeded", url)
		}
	}
}

func TestDefaultVantagesDistinct(t *testing.T) {
	vs := DefaultVantages(5)
	seen := map[netip.Addr]bool{}
	for _, v := range vs {
		if seen[v] {
			t.Fatalf("duplicate vantage %v", v)
		}
		seen[v] = true
	}
}

func TestCrawlerRequiresClients(t *testing.T) {
	if _, err := New(Config{}, nil, nil, nil, nil); err == nil {
		t.Fatal("nil dependencies accepted")
	}
}

// simCrawler builds a crawler over an empty in-process portal and
// tracker on a fresh sim clock.
func simCrawler(t *testing.T) (*Crawler, *simclock.Sim) {
	t.Helper()
	sim := simclock.NewSim(simclock.Epoch)
	p, err := portal.New("t", sim)
	if err != nil {
		t.Fatal(err)
	}
	trk, err := tracker.New(stubStore{}, sim.Now)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := New(Config{}, sim,
		&InProcessPortal{P: p},
		&InProcessTracker{T: trk, Vantages: DefaultVantages(2)},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	return cr, sim
}

func TestStartTwiceFails(t *testing.T) {
	cr, _ := simCrawler(t)
	if err := cr.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := cr.Start(context.Background()); err == nil {
		t.Fatal("second Start accepted")
	}
}

// TestCancelledContextStopsCrawl: Start's context governs the crawl; once
// it is cancelled the poll loop stops re-arming itself.
func TestCancelledContextStopsCrawl(t *testing.T) {
	cr, sim := simCrawler(t)
	ctx, cancel := context.WithCancel(context.Background())
	if err := cr.Start(ctx); err != nil {
		t.Fatal(err)
	}
	sim.Advance(time.Hour)
	polls := cr.Stats().RSSPolls
	if polls == 0 {
		t.Fatal("no feed poll in the first hour")
	}
	cancel()
	sim.Advance(time.Hour)
	if got := cr.Stats().RSSPolls; got != polls {
		t.Fatalf("%d feed polls after cancel, want %d", got, polls)
	}
	if n := sim.Len(); n != 0 {
		t.Fatalf("%d events still scheduled after cancel", n)
	}
}

// userPages is a PortalClient that serves every detail page, knows every
// account but "gone", and records the order of account lookups.
type userPages struct{ asked []string }

func (*userPages) FetchRSS(context.Context) ([]portal.FeedItem, error) { return nil, nil }
func (*userPages) FetchTorrent(context.Context, string) ([]byte, error) {
	return nil, errors.New("no torrents")
}
func (*userPages) FetchPage(context.Context, string) (*portal.PageData, error) {
	return &portal.PageData{}, nil
}
func (u *userPages) FetchUserPage(_ context.Context, name string) (*portal.UserPageData, error) {
	u.asked = append(u.asked, name)
	if name == "gone" {
		return nil, portal.ErrNotFound
	}
	return &portal.UserPageData{UploadCount: len(name)}, nil
}

// TestFinalSweepUserOrder: account pages are swept once per username, in
// the order of each username's first torrent, so the users a live lake
// stream commits are the same bytes on every run.
func TestFinalSweepUserOrder(t *testing.T) {
	pc := &userPages{}
	cr, err := New(Config{}, simclock.NewSim(simclock.Epoch), pc, &InProcessTracker{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"carol", "", "alice", "gone", "carol", "bob", "alice"} {
		cr.ds.AddTorrent(&dataset.TorrentRecord{TorrentID: len(cr.ds.Torrents), Username: u})
	}
	if err := cr.FinalSweep(context.Background(), func(*dataset.TorrentRecord) string { return "" }); err != nil {
		t.Fatal(err)
	}
	want := []string{"carol", "alice", "gone", "bob"}
	if !reflect.DeepEqual(pc.asked, want) {
		t.Fatalf("user pages fetched in order %q, want %q", pc.asked, want)
	}
	var got []string
	for _, u := range cr.Dataset().Users {
		got = append(got, u.Username)
		if u.Exists != (u.Username != "gone") {
			t.Fatalf("user %q: Exists = %v", u.Username, u.Exists)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("users recorded in order %q, want %q", got, want)
	}
}

type stubStore struct{}

func (stubStore) Snapshot(metainfo.Hash, time.Time, int) ([]swarm.Member, int, int, error) {
	return nil, 0, 0, tracker.ErrUnknownSwarm
}

func TestInProcessTrackerNeedsVantages(t *testing.T) {
	trk, err := tracker.New(stubStore{}, time.Now)
	if err != nil {
		t.Fatal(err)
	}
	c := &InProcessTracker{T: trk}
	if _, err := c.Announce(context.Background(), "", metainfo.Hash{}, 0, 10); err == nil ||
		!strings.Contains(err.Error(), "vantage") {
		t.Fatalf("err = %v", err)
	}
}

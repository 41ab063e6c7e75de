package ecosystem

import (
	"context"
	"errors"
	"net/netip"
	"testing"
	"time"

	"btpub/internal/geoip"
	"btpub/internal/metainfo"
	"btpub/internal/population"
	"btpub/internal/simclock"
	"btpub/internal/tracker"
)

// buildSmall assembles a tiny world (~1% of pb10) and returns the live
// ecosystem with its clock still at campaign start.
func buildSmall(t *testing.T) *Ecosystem {
	t.Helper()
	db, err := geoip.DefaultDB()
	if err != nil {
		t.Fatal(err)
	}
	params := population.DefaultParams(0.01)
	params.MeanDownloads = 100 // moderate swarm density for unit tests
	w, err := population.Generate(params, db)
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.NewSim(w.Start)
	e, err := New(Config{World: w, DB: db, Clock: clock, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPublicationsFollowTheClock(t *testing.T) {
	e := buildSmall(t)
	if got := e.PublishedSwarms(); got != 0 {
		t.Fatalf("published before clock moved: %d", got)
	}
	e.Clock().Advance(7 * 24 * time.Hour)
	week := e.PublishedSwarms()
	if week == 0 {
		t.Fatal("nothing published after a week")
	}
	e.Clock().Advance(23 * 24 * time.Hour)
	month := e.PublishedSwarms()
	if month <= week {
		t.Fatalf("no additional publications: week=%d month=%d", week, month)
	}
	if month != len(e.World().Torrents) {
		t.Fatalf("published %d, world has %d", month, len(e.World().Torrents))
	}
}

func TestPortalMirrorsPublications(t *testing.T) {
	e := buildSmall(t)
	e.Clock().Advance(30 * 24 * time.Hour)
	st := e.Portal.Stats()
	if st.Torrents != len(e.World().Torrents) {
		t.Fatalf("portal has %d torrents, world %d", st.Torrents, len(e.World().Torrents))
	}
	// All fake torrents must eventually be removed and their accounts
	// suspended (moderation events fire on the same clock).
	e.Clock().Advance(40 * 24 * time.Hour)
	st = e.Portal.Stats()
	fakes := 0
	for _, tor := range e.World().Torrents {
		if tor.Fake {
			fakes++
		}
	}
	if st.Removed != fakes {
		t.Fatalf("removed %d, want %d (all fakes)", st.Removed, fakes)
	}
	if st.Suspended == 0 {
		t.Fatal("no accounts suspended despite removals")
	}
}

func TestSnapshotServesTrackerStore(t *testing.T) {
	e := buildSmall(t)
	e.Clock().Advance(10 * 24 * time.Hour)
	feed := e.Portal.Recent(50)
	if len(feed) == 0 {
		t.Fatal("empty portal feed")
	}
	now := e.Clock().Now()
	found := false
	for _, entry := range feed {
		members, seeders, leechers, err := e.Snapshot(entry.InfoHash, now, 200)
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		if seeders < 0 || leechers < 0 || len(members) > 200 {
			t.Fatalf("bad snapshot: s=%d l=%d members=%d", seeders, leechers, len(members))
		}
		if len(members) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no swarm had any members 10 days in")
	}
}

func TestSnapshotUnknownHash(t *testing.T) {
	e := buildSmall(t)
	var ih metainfo.Hash
	if _, _, _, err := e.Snapshot(ih, e.Clock().Now(), 10); !errors.Is(err, tracker.ErrUnknownSwarm) {
		t.Fatalf("err = %v, want ErrUnknownSwarm", err)
	}
}

func TestFreshSwarmHasSingleSeederPublisher(t *testing.T) {
	e := buildSmall(t)
	// Walk the clock in small steps and look at newborn swarms: most
	// should show exactly one seeder (the publisher) right after birth.
	checked, single, seeded := 0, 0, 0
	for day := 0; day < 10; day++ {
		e.Clock().Advance(24 * time.Hour)
		now := e.Clock().Now()
		for _, entry := range e.Portal.EntriesSince(now.Add(-24 * time.Hour)) {
			if checked >= 200 {
				break
			}
			_, seeders, _, err := e.Snapshot(entry.InfoHash, now, 0)
			if err != nil {
				t.Fatal(err)
			}
			checked++
			if seeders >= 1 {
				seeded++
			}
			if seeders == 1 {
				single++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no fresh swarms inspected")
	}
	// Most newborn swarms must have an initial seeder; a large fraction has
	// exactly one (fake decoys are often co-seeded from a second box, and
	// by the end of the first day early completers add seeders).
	// Commercial-ISP and regular publishers are offline outside their
	// daily windows, so a day-old swarm can legitimately show 0 seeders.
	if frac := float64(seeded) / float64(checked); frac < 0.5 {
		t.Fatalf("only %.0f%% of newborn swarms have a seeder (%d/%d)",
			frac*100, seeded, checked)
	}
	if frac := float64(single) / float64(checked); frac < 0.2 {
		t.Fatalf("only %.0f%% of newborn swarms have a single seeder (%d/%d)",
			frac*100, single, checked)
	}
}

func TestInProcessProberIdentifiesPublisher(t *testing.T) {
	e := buildSmall(t)
	e.Clock().Advance(3 * 24 * time.Hour)
	prober := &InProcessProber{E: e}
	ctx := context.Background()

	probed, seedersFound := 0, 0
	now := e.Clock().Now()
	for _, entry := range e.Portal.Recent(100) {
		members, seeders, _, err := e.Snapshot(entry.InfoHash, now, 50)
		if err != nil || seeders != 1 {
			continue
		}
		tor, err := metainfo.Parse(entry.TorrentData)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range members {
			res, err := prober.Probe(ctx, m.IP, entry.InfoHash, tor.Info.NumPieces())
			if err != nil {
				continue // NAT or departed
			}
			probed++
			if res.Seeder {
				seedersFound++
				gt, ok := e.TorrentByHash(entry.InfoHash)
				if !ok {
					t.Fatal("no ground truth")
				}
				pub := e.World().Publishers[gt.PublisherID]
				match := false
				for _, ip := range pub.IPs {
					if ip == m.IP {
						match = true
					}
				}
				if m.Publisher && !match {
					t.Fatalf("publisher-flagged member %v not in publisher pool %v",
						m.IP, pub.IPs)
				}
			}
		}
	}
	if probed == 0 {
		t.Fatal("no peers could be probed")
	}
	if seedersFound == 0 {
		t.Fatal("wire probing never found a seeder")
	}
}

func TestProbeUnreachableForNATOrAbsent(t *testing.T) {
	e := buildSmall(t)
	e.Clock().Advance(2 * 24 * time.Hour)
	entry := e.Portal.Recent(1)[0]
	prober := &InProcessProber{E: e}
	// An address that is certainly not in the swarm.
	_, err := prober.Probe(context.Background(),
		netip.MustParseAddr("203.0.113.77"), entry.InfoHash, 100)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestConsumersAreNeverFromHostingProviders(t *testing.T) {
	e := buildSmall(t)
	db, _ := geoip.DefaultDB()
	e.Clock().Advance(8 * 24 * time.Hour)
	now := e.Clock().Now()
	hostingSeen := 0
	consumers := 0
	for _, entry := range e.Portal.Recent(100) {
		members, _, _, err := e.Snapshot(entry.InfoHash, now, 200)
		if err != nil {
			t.Fatal(err)
		}
		gt, _ := e.TorrentByHash(entry.InfoHash)
		pub := e.World().Publishers[gt.PublisherID]
		pubIPs := map[string]bool{}
		for _, ip := range pub.IPs {
			pubIPs[ip.String()] = true
		}
		for _, m := range members {
			if m.Publisher || pubIPs[m.IP.String()] {
				continue // publishers may be hosted; consumers must not be
			}
			// Publisher-consumption injections use other publishers' IPs
			// which can be hosted only if ConsumeRate > 0 — the generator
			// gives hosted publishers ConsumeRate 0, so any hosted IP here
			// is a bug.
			rec, err := db.Lookup(m.IP)
			if err != nil {
				t.Fatalf("consumer %v not in geo DB: %v", m.IP, err)
			}
			consumers++
			if rec.Type == geoip.Hosting {
				hostingSeen++
			}
		}
	}
	if consumers == 0 {
		t.Fatal("no consumers observed")
	}
	if hostingSeen > 0 {
		t.Fatalf("%d consumers from hosting providers", hostingSeen)
	}
}

func TestGroundTruthPresenceAvailable(t *testing.T) {
	e := buildSmall(t)
	e.Clock().Advance(30 * 24 * time.Hour)
	withPresence := 0
	for id := range e.World().Torrents {
		ivs, ok := e.GroundTruthPresence(id)
		if !ok {
			t.Fatalf("no presence for torrent %d", id)
		}
		if len(ivs) > 0 {
			withPresence++
			for i := 1; i < len(ivs); i++ {
				if ivs[i].Start.Before(ivs[i-1].End) {
					t.Fatalf("presence intervals overlap for torrent %d", id)
				}
			}
		}
	}
	if withPresence == 0 {
		t.Fatal("no torrent has any publisher presence")
	}
}

func TestFakeSwarmPublisherSeedsUntilRemoval(t *testing.T) {
	e := buildSmall(t)
	e.Clock().Advance(30 * 24 * time.Hour)
	checked := 0
	for id, tor := range e.World().Torrents {
		if !tor.Fake {
			continue
		}
		ivs, ok := e.GroundTruthPresence(id)
		if !ok || len(ivs) == 0 {
			continue
		}
		checked++
		last := ivs[len(ivs)-1].End
		removal := tor.Published.Add(tor.RemovalAfter)
		// The publisher holds the decoy until removal (or MinSeed if the
		// moderation was faster).
		if last.Before(removal.Add(-time.Minute)) && last.Before(tor.Published.Add(12*time.Hour)) {
			t.Fatalf("fake torrent %d abandoned at %v, removal %v", id, last, removal)
		}
	}
	if checked == 0 {
		t.Fatal("no fake torrents with presence checked")
	}
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

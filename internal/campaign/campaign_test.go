package campaign

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"btpub/internal/population"
)

// run executes one cached tiny campaign per style for all tests.
var cached = map[Style]*Result{}

func run(t *testing.T, style Style) *Result {
	t.Helper()
	if res, ok := cached[style]; ok {
		return res
	}
	res, err := Run(Spec{Scale: 0.01, MeanDownloads: 120, Style: style, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	cached[style] = res
	return res
}

func TestRunRejectsBadSpec(t *testing.T) {
	if _, err := Run(Spec{}); err == nil {
		t.Fatal("zero scale accepted")
	}
}

// TestRunContextCancelled: the campaign's context governs the crawl; a
// cancelled run returns the context's error, not a truncated dataset.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, Spec{Scale: 0.002, MeanDownloads: 15, Seed: 42})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCrawlerSeesEveryTorrent(t *testing.T) {
	res := run(t, PB10)
	if len(res.Dataset.Torrents) != len(res.World.Torrents) {
		t.Fatalf("crawled %d torrents, world has %d",
			len(res.Dataset.Torrents), len(res.World.Torrents))
	}
}

func TestUsernamesRecordedAndCorrect(t *testing.T) {
	res := run(t, PB10)
	byHash := map[string]string{} // infohash hex -> ground-truth username
	for _, entry := range res.Eco.Portal.Recent(1 << 20) {
		if gt, ok := res.Eco.TorrentByHash(entry.InfoHash); ok {
			byHash[entry.InfoHash.String()] = gt.Username
		}
	}
	checked := 0
	for _, rec := range res.Dataset.Torrents {
		want, ok := byHash[rec.InfoHash]
		if !ok {
			continue // removed from the portal index (fake)
		}
		checked++
		if rec.Username != want {
			t.Fatalf("torrent %s: username %q, ground truth %q",
				rec.InfoHash, rec.Username, want)
		}
	}
	if checked == 0 {
		t.Fatal("nothing verified")
	}
}

func TestIdentifiedPublisherIPsAreGroundTruth(t *testing.T) {
	res := run(t, PB10)
	identified, wrong := 0, 0
	for _, rec := range res.Dataset.Torrents {
		if rec.PublisherIP == "" {
			continue
		}
		identified++
		pub, ok := res.Eco.PublisherOf(findWorldTorrent(t, res, rec.InfoHash))
		if !ok {
			t.Fatalf("no publisher for %s", rec.InfoHash)
		}
		match := false
		for _, ip := range pub.IPs {
			if ip.String() == rec.PublisherIP {
				match = true
			}
		}
		if !match {
			wrong++
		}
	}
	if identified == 0 {
		t.Fatal("no publisher IPs identified")
	}
	frac := float64(identified) / float64(len(res.Dataset.Torrents))
	// The paper identifies the IP for ~40% of torrents; our ecosystem has
	// one fewer loss mechanism (no cross-portal republication), so accept
	// a band around it.
	if frac < 0.25 || frac > 0.75 {
		t.Errorf("identified fraction = %.2f, want ~0.4-0.6", frac)
	}
	// Identification is conservative: a unique complete reachable peer in
	// a newborn single-seeder swarm is overwhelmingly the publisher, but a
	// racing early completer can occasionally win; tolerate a tiny error.
	if float64(wrong) > 0.05*float64(identified)+1 {
		t.Errorf("%d/%d identified IPs wrong", wrong, identified)
	}
}

func findWorldTorrent(t *testing.T, res *Result, infoHash string) int {
	t.Helper()
	for _, entry := range res.Eco.Portal.Recent(1 << 20) {
		if entry.InfoHash.String() == infoHash {
			if gt, ok := res.Eco.TorrentByHash(entry.InfoHash); ok {
				return gt.ID
			}
		}
	}
	// Fall back: search ground truth by hash via ecosystem (covers removed
	// entries too).
	for id := range res.World.Torrents {
		ivs, _ := res.Eco.GroundTruthPresence(id)
		_ = ivs
	}
	// Removed fakes are not in Recent; resolve via TorrentByHash.
	var ih [20]byte
	for i := 0; i < 20; i++ {
		var v byte
		for j := 0; j < 2; j++ {
			c := infoHash[2*i+j]
			switch {
			case c >= '0' && c <= '9':
				v = v<<4 | (c - '0')
			case c >= 'a' && c <= 'f':
				v = v<<4 | (c - 'a' + 10)
			}
		}
		ih[i] = v
	}
	if gt, ok := res.Eco.TorrentByHash(ih); ok {
		return gt.ID
	}
	t.Fatalf("torrent %s not found in ground truth", infoHash)
	return -1
}

func TestRemovedTorrentsAreFlagged(t *testing.T) {
	res := run(t, PB10)
	removed, fakes := 0, 0
	for _, rec := range res.Dataset.Torrents {
		id := findWorldTorrent(t, res, rec.InfoHash)
		gt := res.World.Torrents[id]
		if gt.Fake {
			fakes++
			if rec.Removed {
				removed++
			}
		} else if rec.Removed {
			t.Fatalf("genuine torrent %s flagged removed", rec.Title)
		}
	}
	if fakes == 0 {
		t.Fatal("no fakes in the crawl")
	}
	frac := float64(removed) / float64(fakes)
	if frac < 0.95 {
		t.Fatalf("only %.0f%% of fakes flagged removed", frac*100)
	}
}

func TestUserSweepSeparatesSuspendedAccounts(t *testing.T) {
	res := run(t, PB10)
	users := res.Dataset.UserByName()
	if len(users) == 0 {
		t.Fatal("no user records")
	}
	classByUser := map[string]population.Class{}
	for _, tor := range res.World.Torrents {
		classByUser[tor.Username] = res.World.Publishers[tor.PublisherID].Class
	}
	for name, u := range users {
		class, ok := classByUser[name]
		if !ok {
			t.Fatalf("surveyed unknown username %q", name)
		}
		if class.IsFake() && u.Exists {
			t.Errorf("fake username %q still has a live account page", name)
		}
		if !class.IsFake() && !u.Exists {
			t.Errorf("genuine username %q lost its account page", name)
		}
	}
}

func TestObservationVolumeReasonable(t *testing.T) {
	res := run(t, PB10)
	ds := res.Dataset
	if ds.NumObservations() == 0 {
		t.Fatal("no observations")
	}
	perTorrent := float64(ds.NumObservations()) / float64(len(ds.Torrents))
	if perTorrent < 5 {
		t.Fatalf("%.1f observations per torrent — sampling broken?", perTorrent)
	}
	if ds.DistinctIPs() < 1000 {
		t.Fatalf("only %d distinct IPs", ds.DistinctIPs())
	}
}

func TestPB09SingleShot(t *testing.T) {
	res := run(t, PB09)
	st := res.Crawler.Stats()
	// One query per torrent (plus nothing else).
	if st.TrackerQueries != st.TorrentsSeen {
		t.Fatalf("queries = %d, torrents = %d; single-shot should match",
			st.TrackerQueries, st.TorrentsSeen)
	}
	if st.WireProbes != 0 {
		t.Fatalf("pb09 ran %d wire probes, want 0", st.WireProbes)
	}
}

func TestMN08OmitsUsernames(t *testing.T) {
	res := run(t, MN08)
	for _, rec := range res.Dataset.Torrents {
		if rec.Username != "" {
			t.Fatalf("mn08 record carries username %q", rec.Username)
		}
	}
	if res.Dataset.TorrentsWithIP() == 0 {
		t.Fatal("mn08 identified no publisher IPs (it is IP-only)")
	}
	if len(res.Dataset.Users) != 0 {
		t.Fatal("mn08 swept user pages despite having no usernames")
	}
}

func TestDatasetWindowStamps(t *testing.T) {
	res := run(t, PB10)
	ds := res.Dataset
	if !ds.Start.Equal(res.World.Start) {
		t.Fatalf("start = %v, want %v", ds.Start, res.World.Start)
	}
	wantEnd := res.World.Start.Add(time.Duration(population.CampaignDays+drainDays) * 24 * time.Hour)
	if !ds.End.Equal(wantEnd) {
		t.Fatalf("end = %v, want %v", ds.End, wantEnd)
	}
}

func TestCrawlObservedDownloadSharesRoughlyMatchGroundTruth(t *testing.T) {
	res := run(t, PB10)
	// Group observed distinct IPs per torrent by ground-truth class and
	// compare against the generative targets (loose: tiny scale).
	classOf := map[int]population.Class{}
	for _, rec := range res.Dataset.Torrents {
		id := findWorldTorrent(t, res, rec.InfoHash)
		classOf[rec.TorrentID] = res.World.Publishers[res.World.Torrents[id].PublisherID].Class
	}
	distinct := map[int]map[string]bool{}
	obs := &res.Dataset.Obs
	for i := 0; i < obs.Len(); i++ {
		tid := obs.TorrentID(i)
		if distinct[tid] == nil {
			distinct[tid] = map[string]bool{}
		}
		distinct[tid][obs.IPString(i)] = true
	}
	byClass := map[population.Class]float64{}
	total := 0.0
	for tid, ips := range distinct {
		byClass[classOf[tid]] += float64(len(ips))
		total += float64(len(ips))
	}
	fake := (byClass[population.FakeAntipiracy] + byClass[population.FakeMalware]) / total
	top := (byClass[population.TopPortal] + byClass[population.TopWeb] + byClass[population.TopAltruistic]) / total
	t.Logf("observed download shares: fake=%.3f top=%.3f regular=%.3f",
		fake, top, byClass[population.Regular]/total)
	if math.Abs(fake-0.25) > 0.15 {
		t.Errorf("fake observed share %.3f too far from 0.25", fake)
	}
	if math.Abs(top-0.50) > 0.18 {
		t.Errorf("top observed share %.3f too far from 0.50", top)
	}
}

// crawlDigests pins the SHA-256 of each serial run's Dataset.Write
// bytes, so a change that moves the world or the crawl in every shard
// count alike — which the serial-vs-sharded comparison cannot see —
// still fails. A deliberate change to the simulation updates them.
var crawlDigests = map[string]string{
	"pb10":             "6166829a36c71cef99141c77c27f66718d959e4a27acdbcc0f52a23cfd03c4f2",
	"pb09":             "c43688223c85f633b13496c028fce886017d3d89eb5aea991ce651ede58a54ae",
	"mn08":             "616a59f898a991073195e15fa8b9f64bd744caf5a23c1ceb42fc932707eb513e",
	"pb10-adversarial": "84b99ed09dbaefb0758ad497b609d89cf420c0ab43d1e03f88b026e30c56aa94",
}

// TestShardedRunByteIdentical is the determinism gate of the sharded
// engine: for every style — and for the adversarial scenario world — a
// 4-shard run must serialise byte-for-byte identically to the serial run
// at the same seed, and the serial run must hash to its pinned digest.
func TestShardedRunByteIdentical(t *testing.T) {
	type tc struct {
		name   string
		serial func(t *testing.T) *Result
		spec   Spec
	}
	var cases []tc
	for _, style := range []Style{PB10, PB09, MN08} {
		style := style
		cases = append(cases, tc{style.String(),
			func(t *testing.T) *Result { return run(t, style) },
			Spec{Scale: 0.01, MeanDownloads: 120, Style: style, Seed: 42}})
	}
	cases = append(cases, tc{"pb10-adversarial", advRun, advSpec})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := tc.serial(t) // cached serial run, same Spec otherwise
			spec := tc.spec
			spec.Shards = 4
			sharded, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			var a, b bytes.Buffer
			if err := serial.Dataset.Write(&a); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(a.Bytes())
			if got := hex.EncodeToString(sum[:]); got != crawlDigests[tc.name] {
				t.Errorf("serial crawl digest = %s, pinned %s", got, crawlDigests[tc.name])
			}
			if err := sharded.Dataset.Write(&b); err != nil {
				t.Fatal(err)
			}
			sameLines(t, "serial", "sharded", a.String(), b.String())
		})
	}
}

// sameLines fails the test at the first line where two serialised
// datasets differ.
func sameLines(t *testing.T, aName, bName, a, b string) {
	t.Helper()
	if a == b {
		return
	}
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			t.Fatalf("outputs differ (%s %d lines, %s %d); first at line %d:\n%s: %s\n%s: %s",
				aName, len(al), bName, len(bl), i+1, aName, al[i], bName, bl[i])
		}
	}
	t.Fatalf("outputs differ in length: %s %d lines, %s %d", aName, len(al), bName, len(bl))
}

// TestSocketsByteIdentical is the oracle of network mode: a crawl over
// loopback sockets (HTTP portal and tracker, TCP wire gateway, two
// shards) must serialise byte-for-byte like the in-process crawl of the
// same world. The world is small (100 torrents) so the socket runs stay
// cheap; the pinned paper-scale spec runs nightly.
func TestSocketsByteIdentical(t *testing.T) {
	for _, style := range []Style{PB10, PB09} {
		t.Run(style.String(), func(t *testing.T) {
			spec := Spec{Scale: 0.002, MeanDownloads: 15, Style: style, Seed: 42}
			inProcess, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			spec.Sockets, spec.Shards = true, 2
			sockets, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			var a, b bytes.Buffer
			if err := inProcess.Dataset.Write(&a); err != nil {
				t.Fatal(err)
			}
			if err := sockets.Dataset.Write(&b); err != nil {
				t.Fatal(err)
			}
			sameLines(t, "in-process", "sockets", a.String(), b.String())
			if style != PB10 {
				return
			}
			// pb10 must have crossed every socket client: the gateway
			// prober, the portal's user pages and its removal signal.
			st := sockets.Stats()
			removed := 0
			for _, rec := range sockets.Dataset.Torrents {
				if rec.Removed {
					removed++
				}
			}
			if st.WireProbes == 0 || st.PublishersByIP == 0 || len(sockets.Dataset.Users) == 0 || removed == 0 {
				t.Fatalf("socket crawl skipped a client: %d probes, %d publisher IPs, %d users, %d removed",
					st.WireProbes, st.PublishersByIP, len(sockets.Dataset.Users), removed)
			}
		})
	}
}

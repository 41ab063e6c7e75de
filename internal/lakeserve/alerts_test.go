package lakeserve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"btpub/internal/alert"
	"btpub/internal/campaign"
	"btpub/internal/dataset"
	"btpub/internal/geoip"
	"btpub/internal/lake"
	"btpub/internal/lakeserve"
	"btpub/internal/population"
)

func getFeed(t *testing.T, url string) alert.Feed {
	t.Helper()
	code, body := get(t, url)
	if code != 200 {
		t.Fatalf("%s = %d: %s", url, code, body)
	}
	var feed alert.Feed
	if err := json.Unmarshal(body, &feed); err != nil {
		t.Fatalf("alerts decode: %v in %s", err, body)
	}
	return feed
}

// TestAlertsEndpoint covers the feed shape, the since-version cursor,
// parameter validation, and the long-poll waking on a refresh that
// fires a new alert.
func TestAlertsEndpoint(t *testing.T) {
	lk := seedLake(t, lake.Options{})
	srv := newServer(t, lk)

	// The fixture fires ip-churn for each of the 8 publishers (5 distinct
	// publisher IPs each) and fake-signal for the deleted publisher00.
	feed := getFeed(t, srv.URL+"/api/v1/alerts")
	if len(feed.Alerts) != 9 {
		t.Fatalf("feed has %d alerts, want 9: %+v", len(feed.Alerts), feed.Alerts)
	}
	byID := map[string]alert.Alert{}
	for _, a := range feed.Alerts {
		if a.State != alert.StateFiring {
			t.Fatalf("alert %s state = %s", a.ID, a.State)
		}
		byID[a.ID] = a
	}
	fake, ok := byID["fake-signal/publisher00"]
	if !ok || fake.Severity != alert.SeverityCritical {
		t.Fatalf("fake-signal/publisher00 = %+v (ok=%v)", fake, ok)
	}
	if a, ok := byID["ip-churn/publisher03"]; !ok || a.IPs != 5 {
		t.Fatalf("ip-churn/publisher03 = %+v (ok=%v)", a, ok)
	}
	if feed.Version == 0 {
		t.Fatal("feed version is 0")
	}

	// Cursor: everything is older than the feed's own version.
	if rest := getFeed(t, srv.URL+fmt.Sprintf("/api/v1/alerts?since=%d", feed.Version)); len(rest.Alerts) != 0 {
		t.Fatalf("cursor replayed %d alerts", len(rest.Alerts))
	}
	// Parameter validation.
	for _, bad := range []string{"?since=banana", "?wait=banana", "?wait=-3s", "?wait=20m"} {
		if code, _ := get(t, srv.URL+"/api/v1/alerts"+bad); code != 400 {
			t.Fatalf("alerts%s = %d, want 400", bad, code)
		}
	}

	// Long-poll: a waiter parked past the current version wakes when a
	// refresh fires a new alert.
	done := make(chan alert.Feed, 1)
	go func() {
		done <- getFeed(t, srv.URL+fmt.Sprintf("/api/v1/alerts?since=%d&wait=10s", feed.Version))
	}()
	// A new publisher floods 10 torrents into a 10h window: upload-burst.
	base := lk.NextTorrentID()
	var recs []*dataset.TorrentRecord
	for i := 0; i < 10; i++ {
		recs = append(recs, &dataset.TorrentRecord{
			TorrentID: base + i, InfoHash: fmt.Sprintf("%040d", base+i),
			Title: "Flood", Category: "Video > Movies", Username: "floodpublisher",
			PublisherIP: "11.0.9.9", Published: serveT0.Add(time.Duration(i) * time.Hour),
		})
	}
	if err := lk.AddTorrents(recs); err != nil {
		t.Fatal(err)
	}
	if err := lk.Flush(); err != nil {
		t.Fatal(err)
	}
	// Refreshes are request-driven: keep poking a snapshot endpoint until
	// the background rebuild lands and wakes the waiter.
	deadline := time.After(10 * time.Second)
	for {
		select {
		case woken := <-done:
			var burst *alert.Alert
			for i := range woken.Alerts {
				if woken.Alerts[i].ID == "upload-burst/floodpublisher" {
					burst = &woken.Alerts[i]
				}
			}
			if burst == nil || burst.State != alert.StateFiring || burst.Torrents != 10 {
				t.Fatalf("long-poll feed = %+v", woken.Alerts)
			}
			return
		case <-deadline:
			t.Fatal("long-poll never woke on the new alert")
		default:
			get(t, srv.URL+"/api/v1/tables/1")
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// TestStatsDeltaCounters pins the wire names and the full→delta
// progression of the refresh counters on /api/v1/stats, and that the
// delta refresh's wall time is reported.
func TestStatsDeltaCounters(t *testing.T) {
	lk := seedLake(t, lake.Options{})
	srv := newServer(t, lk)

	get(t, srv.URL+"/api/v1/tables/1") // first (full) build
	_, body := get(t, srv.URL+"/api/v1/stats")
	var stats map[string]any
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"refresh_mode", "delta_refreshes", "full_rebuilds", "last_delta_segments", "last_delta_observations", "last_refresh_ms"} {
		if _, ok := stats[key]; !ok {
			t.Fatalf("stats missing %q: %s", key, body)
		}
	}
	if stats["refresh_mode"] != "full" || stats["full_rebuilds"].(float64) < 1 {
		t.Fatalf("first build not counted as full: %s", body)
	}

	// One additive append: the next refresh must take the delta path.
	if err := lk.Append(dataset.Observation{TorrentID: 3, IP: "20.9.9.9", At: serveT0.Add(time.Hour)}); err != nil {
		t.Fatal(err)
	}
	if err := lk.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		get(t, srv.URL+"/api/v1/tables/1")
		_, body = get(t, srv.URL+"/api/v1/stats")
		if err := json.Unmarshal(body, &stats); err != nil {
			t.Fatal(err)
		}
		if stats["analysis_version"].(float64) == float64(lk.Version()) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("snapshot never caught up: %s", body)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if stats["refresh_mode"] != "delta" || stats["delta_refreshes"].(float64) != 1 {
		t.Fatalf("append did not take the delta path: %s", body)
	}
	if stats["last_delta_segments"].(float64) < 1 || stats["last_delta_observations"].(float64) != 1 {
		t.Fatalf("delta size counters wrong: %s", body)
	}
	if stats["last_refresh_ms"].(float64) <= 0 {
		t.Fatalf("delta refresh not timed: %s", body)
	}
}

// recordingNotifier counts the alerts the server delivered.
type recordingNotifier struct {
	mu     sync.Mutex
	alerts int
}

func (n *recordingNotifier) Notify(_ context.Context, alerts []alert.Alert) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.alerts += len(alerts)
	return nil
}

func (n *recordingNotifier) delivered() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alerts
}

// TestCompactionRefreshesAsDelta is the serving seam of folding across
// a compaction: the rewrite refreshes the snapshot in delta mode without
// a full rebuild, re-scores nobody, so the alert feed past the cursor
// stays empty and the notifier hears nothing.
func TestCompactionRefreshesAsDelta(t *testing.T) {
	lk := seedLake(t, lake.Options{FlushRows: 256})
	db, err := geoip.DefaultDB()
	if err != nil {
		t.Fatal(err)
	}
	notes := &recordingNotifier{}
	srv := httptest.NewServer((&lakeserve.Server{Lake: lk, Geo: db, AlertNotifier: notes}).Handler())
	t.Cleanup(srv.Close)
	stats := func() lakeserve.StatsResponse {
		t.Helper()
		_, body := get(t, srv.URL+"/api/v1/stats")
		var st lakeserve.StatsResponse
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	feed := getFeed(t, srv.URL+"/api/v1/alerts") // the first (full) build
	before, heard := stats(), notes.delivered()
	if len(feed.Alerts) == 0 || heard != len(feed.Alerts) || before.FullRebuilds != 1 {
		t.Fatalf("first build: %d alerts, %d notified, %d full rebuilds", len(feed.Alerts), heard, before.FullRebuilds)
	}

	v := lk.Version()
	if err := lk.Compact(); err != nil {
		t.Fatal(err)
	}
	if lk.Version() != v+1 {
		t.Fatalf("compaction left the lake at v%d, want v%d", lk.Version(), v+1)
	}
	deadline := time.Now().Add(10 * time.Second)
	after := stats()
	for after.AnalysisVersion != lk.Version() {
		if time.Now().After(deadline) {
			t.Fatalf("snapshot never caught up with the compaction: %+v", after)
		}
		get(t, srv.URL+"/api/v1/tables/1")
		time.Sleep(20 * time.Millisecond)
		after = stats()
	}
	if after.FullRebuilds != before.FullRebuilds || after.LastMode != "delta" {
		t.Fatalf("compaction refreshed as %s (%q), full rebuilds %d -> %d",
			after.LastMode, after.LastReason, before.FullRebuilds, after.FullRebuilds)
	}
	if rest := getFeed(t, srv.URL+fmt.Sprintf("/api/v1/alerts?since=%d", feed.Version)); len(rest.Alerts) != 0 {
		t.Fatalf("compaction moved %d alerts past the cursor: %+v", len(rest.Alerts), rest.Alerts)
	}
	if got := notes.delivered(); got != heard {
		t.Fatalf("compaction notified %d alerts", got-heard)
	}
}

// TestServedBodiesDeltaVsFull: after a delta refresh, every snapshot
// endpoint's body is byte-identical to a fresh server that full-rebuilt
// at the same version — the serving-tier face of the delta equivalence
// gate.
func TestServedBodiesDeltaVsFull(t *testing.T) {
	lk := seedLake(t, lake.Options{})
	live := newServer(t, lk)

	get(t, live.URL+"/api/v1/tables/1") // full build at the seed version

	base := lk.NextTorrentID()
	if err := lk.AddTorrents([]*dataset.TorrentRecord{{
		TorrentID: base, InfoHash: fmt.Sprintf("%040d", base),
		Title: "Late", Category: "Audio > Music", Username: "latecomer",
		PublisherIP: "11.0.8.8", Published: serveT0.Add(40 * time.Hour),
	}}); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 30; j++ {
		if err := lk.Append(dataset.Observation{
			TorrentID: base, IP: fmt.Sprintf("20.7.0.%d", j),
			At: serveT0.Add(40*time.Hour + time.Duration(j)*time.Minute),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lk.Flush(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		get(t, live.URL+"/api/v1/tables/1")
		_, body := get(t, live.URL+"/api/v1/stats")
		var stats lakeserve.StatsResponse
		if err := json.Unmarshal(body, &stats); err != nil {
			t.Fatal(err)
		}
		if stats.AnalysisVersion == lk.Version() {
			if stats.DeltaRefreshes == 0 {
				t.Fatalf("catch-up was not a delta refresh: %s", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("snapshot never caught up")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Alert feeds are excluded: lifecycle versions legitimately depend on
	// refresh history (fired at the seed version here, at the head on a
	// fresh server), while the analysis-derived bodies may not.
	fresh := newServer(t, lk) // full rebuild from scratch at the same version
	for _, path := range []string{
		"/api/v1/tables/1", "/api/v1/tables/2?n=10", "/api/v1/tables/3",
		"/api/v1/top-publishers?n=50", "/api/v1/fakes", "/api/v1/publishers/classified",
		"/api/v1/publishers/latecomer", "/api/v1/publishers/publisher00", "/api/v1/torrents/recent?n=10",
	} {
		codeL, bodyL := get(t, live.URL+path)
		codeF, bodyF := get(t, fresh.URL+path)
		if codeL != 200 || codeF != 200 {
			t.Fatalf("%s = %d (delta) / %d (full)", path, codeL, codeF)
		}
		if string(bodyL) != string(bodyF) {
			t.Fatalf("%s diverges between delta and full rebuild:\n--- delta ---\n%s\n--- full ---\n%s", path, bodyL, bodyF)
		}
	}
}

// TestBlitzAlertsFireMidReplay is the end-to-end detection gate: a
// campaign with the fake-blitz scenario replays into a live lake in
// time-ordered chunks, and the planted blitz identities must appear on
// /api/v1/alerts while the replay is still running — within one refresh
// of their upload wave, not after the campaign finishes.
func TestBlitzAlertsFireMidReplay(t *testing.T) {
	res, err := campaign.Run(campaign.Spec{
		Scale: 0.02, Seed: 23, MeanDownloads: 40,
		Scenarios: population.ScenarioFakeBlitz,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := res.Dataset
	blitz := map[string]bool{}
	for _, p := range res.World.Publishers {
		if p.Class == population.FakeAntipiracy {
			for _, name := range p.Usernames {
				blitz[name] = true
			}
		}
	}
	if len(blitz) < 3 {
		t.Fatalf("campaign planted only %d blitz identities", len(blitz))
	}

	lk, err := lake.Open(filepath.Join(t.TempDir(), "lake"), lake.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()
	srv := httptest.NewServer((&lakeserve.Server{Lake: lk, Geo: res.DB}).Handler())
	defer srv.Close()

	// Replay on the data's own clock: chunk c commits every record and
	// observation stamped inside the c-th slice of the campaign window.
	// Users commit at the end, as the portal scrape does — detection must
	// not depend on them.
	const chunks = 12
	span := ds.End.Sub(ds.Start)
	chunkOf := func(at time.Time) int {
		c := int(at.Sub(ds.Start) * chunks / span)
		if c < 0 {
			c = 0
		}
		if c >= chunks {
			c = chunks - 1
		}
		return c
	}
	lk.ExtendWindow(ds.Name, ds.Start, ds.End)
	firedAt := -1
	obsAt := 0
	for c := 0; c < chunks; c++ {
		var recs []*dataset.TorrentRecord
		for _, rec := range ds.Torrents {
			if chunkOf(rec.Published) == c {
				recs = append(recs, rec)
			}
		}
		if len(recs) > 0 {
			if err := lk.AddTorrents(recs); err != nil {
				t.Fatal(err)
			}
		}
		for ; obsAt < ds.Obs.Len() && chunkOf(ds.Obs.Time(obsAt)) == c; obsAt++ {
			if err := lk.Append(ds.Obs.At(obsAt)); err != nil {
				t.Fatal(err)
			}
		}
		if c == chunks-1 {
			if err := lk.AddUsers(ds.Users); err != nil {
				t.Fatal(err)
			}
		}
		if err := lk.Flush(); err != nil {
			t.Fatal(err)
		}

		// Drive the request-driven refresh until the snapshot reaches this
		// chunk's version, then read the feed.
		deadline := time.Now().Add(15 * time.Second)
		for {
			code, body := get(t, srv.URL+"/api/v1/alerts")
			if code != 200 {
				t.Fatalf("alerts = %d: %s", code, body)
			}
			var feed alert.Feed
			if err := json.Unmarshal(body, &feed); err != nil {
				t.Fatal(err)
			}
			if firedAt < 0 {
				for _, a := range feed.Alerts {
					if blitz[a.Subject] && a.State == alert.StateFiring {
						firedAt = c
						t.Logf("chunk %d/%d: %s fired (score %.2f: %s)", c, chunks, a.ID, a.Score, strings.Join(a.Reasons, "; "))
						break
					}
				}
			}
			if feed.Version == lk.Version() || firedAt >= 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("snapshot stuck behind the lake at chunk %d", c)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if firedAt < 0 {
		t.Fatal("no blitz identity ever fired an alert")
	}
	if firedAt >= chunks-1 {
		t.Fatalf("blitz alert only fired at chunk %d of %d — after the campaign finished", firedAt, chunks)
	}

	// The wave is planted 2-6 days in with a 1.5-3 day span: detection
	// should land in the first half of the replay.
	if firedAt > chunks/2 {
		t.Logf("note: blitz detected late, at chunk %d of %d", firedAt, chunks)
	}

	// Sanity: the engine agrees with the batch classifier at the end —
	// every blitz username the facts flag as fake has a firing alert.
	feed := getFeed(t, srv.URL+"/api/v1/alerts")
	firing := map[string]bool{}
	for _, a := range feed.Alerts {
		if a.State == alert.StateFiring {
			firing[a.Subject] = true
		}
	}
	missing := 0
	for name := range blitz {
		if !firing[name] {
			missing++
		}
	}
	if missing == len(blitz) {
		t.Fatalf("no blitz identity firing at end of replay; feed: %+v", feed.Alerts)
	}
}

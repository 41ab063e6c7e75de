package lakeserve_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"btpub/internal/dataset"
	"btpub/internal/geoip"
	"btpub/internal/lake"
	"btpub/internal/lakeserve"
)

var serveT0 = time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)

// seedLake opens a lake pre-populated with a small synthetic crawl.
func seedLake(t *testing.T, opt lake.Options) *lake.Lake {
	t.Helper()
	lk, err := lake.Open(filepath.Join(t.TempDir(), "lake"), opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lk.Close() })
	ds := &dataset.Dataset{Name: "serve-test", Start: serveT0, End: serveT0.Add(48 * time.Hour)}
	for i := 0; i < 40; i++ {
		ds.AddTorrent(&dataset.TorrentRecord{
			TorrentID: i, InfoHash: fmt.Sprintf("%040d", i),
			Title: fmt.Sprintf("Content.%d", i), Category: "Video > Movies",
			Username:    fmt.Sprintf("publisher%02d", i%8),
			PublisherIP: fmt.Sprintf("11.0.%d.%d", i%4, i%200),
			Published:   serveT0.Add(time.Duration(i) * time.Hour),
		})
		for j := 0; j < 25; j++ {
			ds.AddObservation(dataset.Observation{
				TorrentID: i, IP: fmt.Sprintf("20.0.%d.%d", j%4, (i*25+j)%250),
				At: serveT0.Add(time.Duration(i)*time.Hour + time.Duration(j)*10*time.Minute),
			})
		}
	}
	for u := 0; u < 8; u++ {
		ds.Users = append(ds.Users, dataset.UserRecord{Username: fmt.Sprintf("publisher%02d", u), Exists: u != 0})
	}
	if err := lk.ImportDataset(dataset.Merge("serve-test", ds)); err != nil {
		t.Fatal(err)
	}
	return lk
}

func newServer(t *testing.T, lk *lake.Lake) *httptest.Server {
	t.Helper()
	db, err := geoip.DefaultDB()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer((&lakeserve.Server{Lake: lk, Geo: db}).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestEndpoints smoke-checks every route's shape.
func TestEndpoints(t *testing.T) {
	lk := seedLake(t, lake.Options{})
	srv := newServer(t, lk)

	code, body := get(t, srv.URL+lakeserve.APIPrefix+"/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats = %d", code)
	}
	var stats lakeserve.StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Lake.Observations != 1000 || stats.Lake.Torrents != 40 {
		t.Fatalf("stats = %+v", stats.Lake)
	}

	code, body = get(t, srv.URL+lakeserve.APIPrefix+"/tables/1")
	if code != http.StatusOK || !strings.Contains(string(body), "Table 1") {
		t.Fatalf("/tables/1 = %d: %s", code, body)
	}
	code, body = get(t, srv.URL+lakeserve.APIPrefix+"/tables/2?format=json")
	if code != http.StatusOK {
		t.Fatalf("/tables/2 = %d", code)
	}
	var isps []map[string]any
	if err := json.Unmarshal(body, &isps); err != nil {
		t.Fatalf("/tables/2 json: %v in %s", err, body)
	}
	code, body = get(t, srv.URL+lakeserve.APIPrefix+"/tables/3")
	if code != http.StatusOK || !strings.Contains(string(body), "Table 3") {
		t.Fatalf("/tables/3 = %d: %s", code, body)
	}

	code, body = get(t, srv.URL+lakeserve.APIPrefix+"/top-publishers?n=3")
	if code != http.StatusOK {
		t.Fatalf("/top-publishers = %d", code)
	}
	var tops []lakeserve.TopPublisher
	if err := json.Unmarshal(body, &tops); err != nil {
		t.Fatal(err)
	}
	if len(tops) != 3 || tops[0].Torrents < tops[2].Torrents {
		t.Fatalf("top publishers = %+v", tops)
	}

	code, body = get(t, srv.URL+lakeserve.APIPrefix+"/torrents/5/observations?limit=10")
	if code != http.StatusOK {
		t.Fatalf("/torrents/5/observations = %d", code)
	}
	var obs []lakeserve.ObservationRow
	if err := json.Unmarshal(body, &obs); err != nil {
		t.Fatal(err)
	}
	if len(obs) != 10 {
		t.Fatalf("observations = %d rows, want 10 (limited)", len(obs))
	}
	for i := 1; i < len(obs); i++ {
		if obs[i].At.Before(obs[i-1].At) {
			t.Fatal("observations not time-ordered")
		}
	}

	if code, _ := get(t, srv.URL+lakeserve.APIPrefix+"/torrents/banana/observations"); code != http.StatusBadRequest {
		t.Fatalf("bad id = %d, want 400", code)
	}
	if code, _ := get(t, srv.URL+lakeserve.APIPrefix+"/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown route = %d, want 404", code)
	}
}

// TestClassifiedAndFakesEndpoints covers the Section 5 serving layer:
// /publishers/classified labels the top group (Altruist with no promos in
// this fixture) and /fakes surfaces the deleted account.
func TestClassifiedAndFakesEndpoints(t *testing.T) {
	lk := seedLake(t, lake.Options{})
	srv := newServer(t, lk)

	code, body := get(t, srv.URL+lakeserve.APIPrefix+"/publishers/classified")
	if code != http.StatusOK {
		t.Fatalf("/publishers/classified = %d: %s", code, body)
	}
	var rows []lakeserve.ClassifiedPublisher
	if err := json.Unmarshal(body, &rows); err != nil {
		t.Fatal(err)
	}
	// 8 publishers, one fake (publisher00): seven classified rows.
	if len(rows) != 7 {
		t.Fatalf("classified rows = %d, want 7", len(rows))
	}
	for _, row := range rows {
		if row.Username == "publisher00" {
			t.Fatal("fake publisher in the classified top group")
		}
		if row.Class != "Altruistic Publishers" || row.Torrents != 5 || row.Downloads == 0 {
			t.Fatalf("classified row = %+v", row)
		}
	}

	code, body = get(t, srv.URL+lakeserve.APIPrefix+"/fakes")
	if code != http.StatusOK {
		t.Fatalf("/fakes = %d: %s", code, body)
	}
	var fakes []lakeserve.FakePublisher
	if err := json.Unmarshal(body, &fakes); err != nil {
		t.Fatal(err)
	}
	if len(fakes) != 1 || fakes[0].Username != "publisher00" || !fakes[0].AccountDeleted {
		t.Fatalf("fakes = %+v", fakes)
	}

	// A quiet lake must serve a snapshot stamped with the lake's exact
	// version — a stale stamp would trigger a redundant rebuild on every
	// request.
	_, body = get(t, srv.URL+lakeserve.APIPrefix+"/stats")
	var stats lakeserve.StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.AnalysisVersion != lk.Version() {
		t.Fatalf("analysis version %d, lake version %d", stats.AnalysisVersion, lk.Version())
	}
}

// TestConcurrentRequestsOverLiveLake is the acceptance gate: >= 64
// concurrent /tables/2 requests against a lake a live writer is
// appending to (with auto-compaction on), under the race detector, with
// every response well-formed and no stale-read panics.
func TestConcurrentRequestsOverLiveLake(t *testing.T) {
	lk := seedLake(t, lake.Options{
		FlushRows: 300,
		Compact:   lake.CompactOptions{Auto: true, MinSegments: 3, TargetRows: 100000},
	})
	srv := newServer(t, lk)

	// Live writer: a second crawl streaming in while requests fly.
	stopWriter := make(chan struct{})
	var writerDone sync.WaitGroup
	writerDone.Add(1)
	go func() {
		defer writerDone.Done()
		base := lk.NextTorrentID()
		var recs []*dataset.TorrentRecord
		for i := 0; i < 10; i++ {
			recs = append(recs, &dataset.TorrentRecord{
				TorrentID: base + i, InfoHash: fmt.Sprintf("%040d", base+i),
				Title: "Live", Category: "Audio > Music",
				Username:  "livepublisher",
				Published: serveT0.Add(72 * time.Hour),
			})
		}
		if err := lk.AddTorrents(recs); err != nil {
			t.Error(err)
			return
		}
		for i := 0; ; i++ {
			select {
			case <-stopWriter:
				if err := lk.Flush(); err != nil {
					t.Error(err)
				}
				return
			default:
			}
			err := lk.Append(dataset.Observation{
				TorrentID: base + i%10, IP: fmt.Sprintf("30.0.%d.%d", i%4, i%250),
				At: serveT0.Add(72*time.Hour + time.Duration(i)*time.Second),
			})
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()

	const clients = 64
	const perClient = 6
	var bad atomic.Int64
	var wg sync.WaitGroup
	client := srv.Client()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := client.Get(srv.URL + lakeserve.APIPrefix + "/tables/2")
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					bad.Add(1)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d err %v", c, resp.StatusCode, err)
					bad.Add(1)
					return
				}
				if !strings.Contains(string(body), "Table 2") {
					t.Errorf("client %d: malformed body %q", c, body)
					bad.Add(1)
					return
				}
				// Sprinkle the raw-scan endpoint in as well.
				if i%3 == 0 {
					resp, err := client.Get(srv.URL + lakeserve.APIPrefix + fmt.Sprintf("/torrents/%d/observations?limit=5", i%40))
					if err != nil || resp.StatusCode != http.StatusOK {
						t.Errorf("client %d: observations status %v err %v", c, resp, err)
						bad.Add(1)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(c)
	}
	wg.Wait()
	close(stopWriter)
	writerDone.Wait()
	if bad.Load() > 0 {
		t.Fatalf("%d failed requests", bad.Load())
	}

	// After the dust settles a fresh request reflects the live writer's
	// torrents (snapshot refresh catches up with the lake version).
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, body := get(t, srv.URL+lakeserve.APIPrefix+"/top-publishers?n=50")
		if strings.Contains(string(body), "livepublisher") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("snapshot never caught up with the live writer")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// getJSON fetches one snapshot-backed route, decodes its 200 body into v
// and returns the snapshot version the response was stamped with.
func getJSON(t *testing.T, url string, v any) uint64 {
	t.Helper()
	code, hdr, body := getFull(t, url)
	if code != http.StatusOK {
		t.Fatalf("%s = %d: %s", url, code, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("%s: %v in %s", url, err, body)
	}
	version, err := strconv.ParseUint(hdr.Get("X-Btpub-Snapshot-Version"), 10, 64)
	if err != nil {
		t.Fatalf("%s: X-Btpub-Snapshot-Version = %q", url, hdr.Get("X-Btpub-Snapshot-Version"))
	}
	return version
}

// TestPublisherAndRecentEndpoints covers the paper's Section 7 views:
// /publishers/{name} is one identity's page and agrees with the three
// listings about it, /torrents/recent is the newest-first tail, and both
// follow the lake — a second commit adds a publisher with 1 of 5 uploads
// removed and a live account (not fake: the paper's rule wants a deleted
// account or a removed majority) and a username-less record whose
// identity is its seeder address.
func TestPublisherAndRecentEndpoints(t *testing.T) {
	lk := seedLake(t, lake.Options{})
	server := &lakeserve.Server{Lake: lk}
	v1 := newResilientServer(t, server).URL + lakeserve.APIPrefix

	var recent []lakeserve.RecentTorrent
	seedVersion := getJSON(t, v1+"/torrents/recent?n=3", &recent)
	if seedVersion != lk.Version() {
		t.Fatalf("snapshot version %d, lake version %d", seedVersion, lk.Version())
	}
	if len(recent) != 3 || recent[0].TorrentID != 39 || recent[1].TorrentID != 38 || recent[2].TorrentID != 37 ||
		recent[0].Publisher != "publisher07" || !recent[0].Published.Equal(serveT0.Add(39*time.Hour)) {
		t.Fatalf("/torrents/recent?n=3 = %+v", recent)
	}
	if getJSON(t, v1+"/torrents/recent", &recent); len(recent) != 40 {
		t.Fatalf("/torrents/recent = %d rows, want all 40 (default n=50)", len(recent))
	}
	code, _, body := getFull(t, v1+"/publishers/partial")
	if code != http.StatusNotFound {
		t.Fatalf("unknown publisher = %d: %s", code, body)
	}
	checkErrEnvelope(t, body, "not_found")

	base := lk.NextTorrentID()
	late := serveT0.Add(41 * time.Hour)
	var recs []*dataset.TorrentRecord
	for i := 0; i < 5; i++ {
		recs = append(recs, &dataset.TorrentRecord{
			TorrentID: base + i, InfoHash: fmt.Sprintf("%040d", base+i),
			Title: fmt.Sprintf("Partial.%d", i), Category: "Audio > Music", FileName: "get.more.at.www.partial-site.com.mp3",
			Username: "partial", PublisherIP: "11.0.9.1",
			Published: late.Add(time.Duration(i) * time.Hour), Removed: i == 2,
		})
	}
	recs = append(recs, &dataset.TorrentRecord{
		TorrentID: base + 5, InfoHash: fmt.Sprintf("%040d", base+5),
		Title: "Nameless", Category: "Video > Movies", PublisherIP: "11.0.9.9",
		Published: late.Add(5 * time.Hour),
	})
	if err := lk.AddTorrents(recs); err != nil {
		t.Fatal(err)
	}
	if err := lk.AddUsers([]dataset.UserRecord{{Username: "partial", Exists: true}}); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := lk.Append(dataset.Observation{TorrentID: rec.TorrentID, IP: "20.8.0.1", At: rec.Published}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lk.Flush(); err != nil {
		t.Fatal(err)
	}
	server.Refresh()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if getJSON(t, v1+"/torrents/recent?n=2", &recent) == lk.Version() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("snapshot never caught up with the second commit")
		}
	}
	if lk.Version() <= seedVersion {
		t.Fatalf("lake version %d did not move past %d", lk.Version(), seedVersion)
	}
	if len(recent) != 2 || recent[0].TorrentID != base+5 || recent[0].Publisher != "ip:11.0.9.9" ||
		recent[1].TorrentID != base+4 || recent[1].Publisher != "partial" {
		t.Fatalf("/torrents/recent?n=2 after the commit = %+v", recent)
	}

	var tops []lakeserve.TopPublisher
	var fakes []lakeserve.FakePublisher
	var classified []lakeserve.ClassifiedPublisher
	getJSON(t, v1+"/top-publishers?n=100", &tops)
	getJSON(t, v1+"/fakes", &fakes)
	getJSON(t, v1+"/publishers/classified?n=100", &classified)

	for _, tc := range []struct {
		name           string
		torrents       int
		removed        int
		fake           bool
		ips            int
		first, last    time.Time
		promo          string
		wantClassified bool
	}{
		{name: "publisher03", torrents: 5, ips: 5, first: serveT0.Add(3 * time.Hour), last: serveT0.Add(35 * time.Hour), wantClassified: true},
		{name: "publisher00", torrents: 5, fake: true, ips: 5, first: serveT0, last: serveT0.Add(32 * time.Hour)},
		{name: "partial", torrents: 5, removed: 1, ips: 1, first: late, last: late.Add(4 * time.Hour), promo: "www.partial-site.com", wantClassified: true},
		{name: "ip:11.0.9.9", torrents: 1, ips: 1, first: late.Add(5 * time.Hour), last: late.Add(5 * time.Hour), wantClassified: true},
	} {
		var got lakeserve.PublisherDetail
		if v := getJSON(t, v1+"/publishers/"+tc.name, &got); v != lk.Version() {
			t.Fatalf("%s: snapshot version %d, lake version %d", tc.name, v, lk.Version())
		}
		if got.Username != tc.name || got.Torrents != tc.torrents || got.RemovedTorrents != tc.removed ||
			got.Fake != tc.fake || len(got.IPs) != tc.ips || len(got.ISPs) == 0 ||
			!got.FirstUpload.Equal(tc.first) || !got.LastUpload.Equal(tc.last) || got.PromoURL != tc.promo {
			t.Errorf("/publishers/%s = %+v", tc.name, got)
		}
		for _, top := range tops {
			if top.Username == tc.name && (top.Torrents != got.Torrents || top.Downloads != got.Downloads || top.Fake != got.Fake) {
				t.Errorf("%s: /top-publishers says %+v, /publishers/{name} %+v", tc.name, top, got)
			}
		}
		inFakes := false
		for _, f := range fakes {
			if f.Username == tc.name {
				inFakes = true
				if !reflect.DeepEqual(f, got.FakePublisher) {
					t.Errorf("%s: /fakes says %+v, /publishers/{name} %+v", tc.name, f, got.FakePublisher)
				}
			}
		}
		if inFakes != (got.Fake || len(got.Cohort) > 0) {
			t.Errorf("%s: in /fakes = %v, row = %+v", tc.name, inFakes, got)
		}
		inClassified := false
		for _, c := range classified {
			if c.Username == tc.name {
				inClassified = true
				if c.Class != got.Class || c.URL != got.URL || c.Language != got.Language || c.Torrents != got.Torrents || c.Downloads != got.Downloads {
					t.Errorf("%s: /publishers/classified says %+v, /publishers/{name} %+v", tc.name, c, got)
				}
			}
		}
		if inClassified != tc.wantClassified || (got.Class != "") != inClassified {
			t.Errorf("%s: in /publishers/classified = %v (want %v), class %q", tc.name, inClassified, tc.wantClassified, got.Class)
		}
	}
}

// TestRecentIDsMatchObservations: /torrents/recent names each torrent by
// its lake ID, so every row's /torrents/{id}/observations answers that
// torrent's sightings — also when the lake's IDs run opposite to the
// snapshot's canonical (Published, InfoHash) order, in the first build
// and after a delta fold that inserts a record between the two.
func TestRecentIDsMatchObservations(t *testing.T) {
	lk, err := lake.Open(filepath.Join(t.TempDir(), "lake"), lake.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lk.Close() })
	lk.ExtendWindow("id-test", serveT0, serveT0.Add(48*time.Hour))
	ipOf := map[string]string{}
	commit := func(id int, title string, published time.Duration) {
		t.Helper()
		ipOf[title] = fmt.Sprintf("20.0.0.%d", id+1)
		rec := &dataset.TorrentRecord{
			TorrentID: id, InfoHash: fmt.Sprintf("%040d", id), Title: title, Category: "Video > Movies",
			Username: title, Published: serveT0.Add(published),
		}
		if err := lk.AddTorrents([]*dataset.TorrentRecord{rec}); err != nil {
			t.Fatal(err)
		}
		if err := lk.Append(dataset.Observation{TorrentID: id, IP: ipOf[title], At: rec.Published}); err != nil {
			t.Fatal(err)
		}
	}
	server := &lakeserve.Server{Lake: lk}
	v1 := newResilientServer(t, server).URL + lakeserve.APIPrefix
	check := func(wantTitles ...string) {
		t.Helper()
		var recent []lakeserve.RecentTorrent
		for deadline := time.Now().Add(10 * time.Second); getJSON(t, v1+"/torrents/recent", &recent) != lk.Version(); time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("snapshot never caught up with the lake")
			}
		}
		var titles []string
		for _, row := range recent {
			titles = append(titles, row.Title)
			var obs []lakeserve.ObservationRow
			code, _, body := getFull(t, fmt.Sprintf("%s/torrents/%d/observations", v1, row.TorrentID))
			if code != http.StatusOK {
				t.Fatalf("%s: observations = %d: %s", row.Title, code, body)
			}
			if err := json.Unmarshal(body, &obs); err != nil {
				t.Fatal(err)
			}
			if len(obs) != 1 || obs[0].IP != ipOf[row.Title] {
				t.Errorf("%s (id %d): observations = %+v, want its one sighting from %s", row.Title, row.TorrentID, obs, ipOf[row.Title])
			}
		}
		if !reflect.DeepEqual(titles, wantTitles) {
			t.Fatalf("/torrents/recent titles = %v, want %v", titles, wantTitles)
		}
	}

	commit(0, "Late", 3*time.Hour)
	commit(1, "Early", time.Hour)
	if err := lk.Flush(); err != nil {
		t.Fatal(err)
	}
	check("Late", "Early")

	commit(2, "Middle", 2*time.Hour)
	if err := lk.Flush(); err != nil {
		t.Fatal(err)
	}
	server.Refresh()
	check("Late", "Middle", "Early")
}

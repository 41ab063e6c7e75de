package lakeserve_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
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

// End-to-end resilience: health/readiness probes, admission control
// shedding 429s under overload (and the apiclient riding through them),
// degraded serving over a lake whose reads start failing mid-flight, and
// the per-request timeout envelope. The lake sits on faultfs so read
// faults can be injected and healed at arbitrary wall-clock moments.
package lakeserve_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"btpub/internal/apiclient"
	"btpub/internal/dataset"
	"btpub/internal/geoip"
	"btpub/internal/lake"
	"btpub/internal/lakeserve"
	"btpub/internal/population"
	"btpub/internal/vfs/faultfs"
)

// seedFaultLake is seedLake over a faultfs volume, so tests can inject
// read faults into a live serving lake.
func seedFaultLake(t *testing.T) (*lake.Lake, *faultfs.FS) {
	t.Helper()
	fsys := faultfs.New(1)
	lk, err := lake.Open("sim", lake.Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lk.Close() })
	ds := &dataset.Dataset{Name: "resilience-test", Start: serveT0, End: serveT0.Add(48 * time.Hour)}
	for i := 0; i < 8; i++ {
		ds.AddTorrent(&dataset.TorrentRecord{
			TorrentID: i, InfoHash: fmt.Sprintf("%040d", i),
			Title: fmt.Sprintf("Content.%d", i), Category: "Video > Movies",
			Username:  "publisher00",
			Published: serveT0.Add(time.Duration(i) * time.Hour),
		})
		for j := 0; j < 25; j++ {
			ds.AddObservation(dataset.Observation{
				TorrentID: i, IP: fmt.Sprintf("20.0.0.%d", j%8+1),
				At: serveT0.Add(time.Duration(i)*time.Hour + time.Duration(j)*10*time.Minute),
			})
		}
	}
	if err := lk.ImportDataset(dataset.Merge("resilience-test", ds)); err != nil {
		t.Fatal(err)
	}
	return lk, fsys
}

// newResilientServer serves srv (with its resilience knobs set by the
// caller) over httptest.
func newResilientServer(t *testing.T, srv *lakeserve.Server) *httptest.Server {
	t.Helper()
	if srv.Geo == nil {
		db, err := geoip.DefaultDB()
		if err != nil {
			t.Fatal(err)
		}
		srv.Geo = db
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(srv.Close)
	return hs
}

// getFull is get plus headers: status, headers, drained body.
func getFull(t *testing.T, url string) (int, http.Header, []byte) {
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
	return resp.StatusCode, resp.Header, body
}

// checkErrEnvelope decodes an error envelope and asserts its code.
func checkErrEnvelope(t *testing.T, body []byte, wantCode string) {
	t.Helper()
	var env lakeserve.ErrorBody
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body is not the envelope: %v in %q", err, body)
	}
	if env.Error.Code != wantCode {
		t.Fatalf("envelope code = %q, want %q (message: %s)", env.Error.Code, wantCode, env.Error.Message)
	}
}

// TestHealthAndReadiness: /healthz answers immediately; /readyz is 503
// "not_ready" before the first snapshot and converges to 200 on its own,
// because an unready probe kicks the background build.
func TestHealthAndReadiness(t *testing.T) {
	lk, _ := seedFaultLake(t)
	hs := newResilientServer(t, &lakeserve.Server{Lake: lk})

	code, _, body := getFull(t, hs.URL+"/healthz")
	if code != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("/healthz = %d %q, want 200 ok", code, body)
	}

	code, hdr, body := getFull(t, hs.URL+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("first /readyz = %d, want 503 before the snapshot exists", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("unready /readyz is missing Retry-After")
	}
	checkErrEnvelope(t, body, "not_ready")

	deadline := time.Now().Add(10 * time.Second)
	for {
		code, _, body = getFull(t, hs.URL+"/readyz")
		if code == http.StatusOK {
			if string(body) != "ready\n" {
				t.Fatalf("ready /readyz body = %q", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz never became ready (last = %d %s)", code, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// countingTransport counts HTTP exchanges, so a test can prove the
// client really retried instead of succeeding first try.
type countingTransport struct {
	n  atomic.Int64
	rt http.RoundTripper
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return c.rt.RoundTrip(r)
}

// TestOverloadAdmission: with a bound of 2 and both slots parked on
// blocked lake reads, further requests are shed with 429 + Retry-After —
// and an apiclient with retries enabled rides the 429s to success once
// the reads unblock.
func TestOverloadAdmission(t *testing.T) {
	lk, fsys := seedFaultLake(t)
	t.Cleanup(fsys.UnblockReads) // registered after lk.Close: unblocks first
	hs := newResilientServer(t, &lakeserve.Server{
		Lake: lk, MaxConcurrent: 2, RequestTimeout: -1,
	})

	fsys.BlockReads()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(hs.URL + "/api/v1/torrents/0/observations")
			if err != nil {
				t.Errorf("parked request failed: %v", err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("parked request finished %d: %s", resp.StatusCode, body)
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for fsys.BlockedReads() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no request ever reached the blocked lake read")
		}
		time.Sleep(time.Millisecond)
	}
	// One request is provably parked inside the lake; the second holds
	// the other admission slot (possibly queued behind the first in the
	// shared executor). Probe until the semaphore is observably full.
	for {
		code, hdr, body := getFull(t, hs.URL+"/api/v1/stats")
		if code == http.StatusTooManyRequests {
			checkErrEnvelope(t, body, "overloaded")
			if ra := hdr.Get("Retry-After"); ra != "1" {
				t.Fatalf("429 Retry-After = %q, want \"1\"", ra)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("overloaded server never shed a 429 (last = %d)", code)
		}
		time.Sleep(time.Millisecond)
	}

	// The client sees the same overload but absorbs it: jittered retries
	// (honoring Retry-After) until the blocked reads heal.
	ct := &countingTransport{rt: http.DefaultTransport}
	c := apiclient.New(hs.URL)
	c.HTTP = &http.Client{Transport: ct, Timeout: 30 * time.Second}
	c.Retries = 50
	c.RetryBase = 5 * time.Millisecond
	done := make(chan error, 1)
	go func() {
		_, err := c.Observations(t.Context(), 0, 10)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let it collect a few 429s
	fsys.UnblockReads()
	if err := <-done; err != nil {
		t.Fatalf("client did not ride through the overload: %v", err)
	}
	if n := ct.n.Load(); n < 2 {
		t.Fatalf("client succeeded in %d exchange(s); expected at least one 429 retry", n)
	}
	wg.Wait()
}

// TestServeDegradedUnderReadFaults: when lake reads start failing, the
// stale snapshot keeps answering (200 + staleness headers), the failed
// rebuilds surface in /stats and as X-Btpub-Degraded, and healing the
// reads clears it all.
func TestServeDegradedUnderReadFaults(t *testing.T) {
	lk, fsys := seedFaultLake(t)
	srv := &lakeserve.Server{Lake: lk, RefreshBackoff: 10 * time.Millisecond}
	hs := newResilientServer(t, srv)

	// First request builds the snapshot synchronously while the disk is
	// healthy.
	code, _, body := getFull(t, hs.URL+"/api/v1/tables/1")
	if code != http.StatusOK {
		t.Fatalf("healthy /tables/1 = %d: %s", code, body)
	}

	// Commit a new lake version, then break every read: the snapshot is
	// now stale and cannot be rebuilt.
	if err := lk.Append(dataset.Observation{TorrentID: 0, IP: "20.0.0.99", At: serveT0.Add(72 * time.Hour)}); err != nil {
		t.Fatal(err)
	}
	if err := lk.Flush(); err != nil {
		t.Fatal(err)
	}
	fsys.SetReadError(faultfs.ErrIO)

	deadline := time.Now().Add(10 * time.Second)
	for {
		code, hdr, body := getFull(t, hs.URL+"/api/v1/tables/1")
		if code != http.StatusOK {
			t.Fatalf("degraded /tables/1 = %d (stale snapshot must keep serving): %s", code, body)
		}
		if hdr.Get("X-Btpub-Snapshot-Stale") != "true" {
			t.Fatalf("degraded response is missing X-Btpub-Snapshot-Stale (headers: %v)", hdr)
		}
		if hdr.Get("X-Btpub-Degraded") == "rebuild-failed" {
			break // a rebuild has failed and the response says so
		}
		if time.Now().After(deadline) {
			t.Fatal("X-Btpub-Degraded never appeared despite failing rebuilds")
		}
		time.Sleep(5 * time.Millisecond)
	}

	code, _, body = getFull(t, hs.URL+"/api/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats = %d", code)
	}
	var st lakeserve.StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.LastRefreshError == "" || !st.Stale {
		t.Fatalf("degraded /stats = {refresh_state:%q last_refresh_error:%q stale:%v}, want an error and stale=true",
			st.RefreshState, st.LastRefreshError, st.Stale)
	}

	// Heal the disk: polling a snapshot endpoint keeps kicking rebuilds
	// (breaker permitting) until one succeeds and the degraded state
	// clears.
	fsys.SetReadError(nil)
	deadline = time.Now().Add(10 * time.Second)
	for {
		code, hdr, _ := getFull(t, hs.URL+"/api/v1/tables/1")
		if code == http.StatusOK && hdr.Get("X-Btpub-Snapshot-Stale") == "" {
			if h := hdr.Get("X-Btpub-Degraded"); h != "" {
				t.Fatalf("recovered response still carries X-Btpub-Degraded=%q", h)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never recovered after reads healed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	code, _, body = getFull(t, hs.URL+"/api/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats = %d", code)
	}
	st = lakeserve.StatsResponse{}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.LastRefreshError != "" || st.Stale {
		t.Fatalf("recovered /stats = {last_refresh_error:%q stale:%v}, want clean", st.LastRefreshError, st.Stale)
	}
}

// TestStatsDuringRebuild: /stats answers while a background rebuild is
// parked on a lake read, and says so. The maintainer's counters are
// published beside its snapshot, not behind the lock the rebuild holds
// across the read.
func TestStatsDuringRebuild(t *testing.T) {
	lk, fsys := seedFaultLake(t)
	hs := newResilientServer(t, &lakeserve.Server{Lake: lk})
	if code, _, body := getFull(t, hs.URL+"/api/v1/tables/1"); code != http.StatusOK {
		t.Fatalf("first /tables/1 = %d: %s", code, body)
	}
	if err := lk.Append(dataset.Observation{TorrentID: 0, IP: "20.0.0.99", At: serveT0.Add(72 * time.Hour)}); err != nil {
		t.Fatal(err)
	}
	if err := lk.Flush(); err != nil {
		t.Fatal(err)
	}

	fsys.BlockReads()
	defer fsys.UnblockReads() // before the cleanups, which wait for handlers
	// A request over the stale snapshot kicks the background rebuild.
	if code, _, body := getFull(t, hs.URL+"/api/v1/tables/1"); code != http.StatusOK {
		t.Fatalf("stale /tables/1 = %d: %s", code, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for fsys.BlockedReads() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the background rebuild never reached the blocked lake read")
		}
		time.Sleep(time.Millisecond)
	}

	c := &http.Client{Timeout: time.Second}
	resp, err := c.Get(hs.URL + "/api/v1/stats")
	if err != nil {
		t.Fatalf("/stats during a rebuild: %v", err)
	}
	defer resp.Body.Close()
	var st lakeserve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || st.RefreshState != "rebuilding" || !st.Stale {
		t.Fatalf("/stats during a rebuild = %d {refresh_state:%q stale:%v}, want 200 rebuilding stale",
			resp.StatusCode, st.RefreshState, st.Stale)
	}
}

// TestRequestTimeoutEnvelope: a request stuck past RequestTimeout is cut
// off with the standard 503 "timeout" envelope and Retry-After, which is
// exactly what apiclient classifies as a retryable server push-back.
func TestRequestTimeoutEnvelope(t *testing.T) {
	lk, fsys := seedFaultLake(t)
	t.Cleanup(fsys.UnblockReads) // registered after lk.Close: unblocks first
	hs := newResilientServer(t, &lakeserve.Server{
		Lake: lk, RequestTimeout: 50 * time.Millisecond, MaxConcurrent: -1,
	})

	fsys.BlockReads()
	code, hdr, body := getFull(t, hs.URL+"/api/v1/torrents/0/observations")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("stuck request = %d, want 503: %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("timeout response is missing Retry-After")
	}
	checkErrEnvelope(t, body, "timeout")

	c := apiclient.New(hs.URL)
	c.Retries = -1
	_, err := c.Observations(t.Context(), 0, 10)
	var se *apiclient.Error
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable || se.Code != "timeout" {
		t.Fatalf("client decoded %v, want *Error{503 timeout}", err)
	}
	if se.RetryAfter <= 0 {
		t.Fatalf("client RetryAfter = %v, want > 0", se.RetryAfter)
	}
}

// countingInspector counts Inspect calls per promoted URL; every site is
// a private BitTorrent portal.
type countingInspector struct {
	mu    sync.Mutex
	calls map[string]int
}

func (c *countingInspector) Inspect(url string) (population.BusinessType, string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls[url]++
	return population.BusinessPrivatePortal, "en", nil
}

// TestColdStartClassifiesOnce: a cold server's two first builds — the
// background one /readyz kicks and the synchronous one the first data
// request needs — classify the one lake version once, so the promoted
// site is inspected once, whichever starts first. A request that finds
// the background build parked on a lake read waits for its result; a
// background build queued behind the request's build finds the snapshot
// current and skips.
func TestColdStartClassifiesOnce(t *testing.T) {
	for _, order := range []string{"readyz-first", "request-first"} {
		t.Run(order, func(t *testing.T) { coldStart(t, order == "readyz-first") })
	}
}

func coldStart(t *testing.T, readyzFirst bool) {
	fsys := faultfs.New(1)
	lk, err := lake.Open("sim", lake.Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lk.Close() })
	t.Cleanup(fsys.UnblockReads) // registered after lk.Close: unblocks first
	ds := &dataset.Dataset{Name: "cold-start-test", Start: serveT0, End: serveT0.Add(48 * time.Hour)}
	for i := 0; i < 8; i++ {
		ds.AddTorrent(&dataset.TorrentRecord{
			TorrentID: i, InfoHash: fmt.Sprintf("%040d", i),
			Title: fmt.Sprintf("Content.%d", i), Category: "Video > Movies",
			FileName: fmt.Sprintf("content.%d.www.promo-site.com.avi", i),
			Username: "promoter", PublisherIP: "11.0.0.1",
			Published: serveT0.Add(time.Duration(i) * time.Hour),
		})
		ds.AddObservation(dataset.Observation{TorrentID: i, IP: fmt.Sprintf("20.0.0.%d", i+1), At: serveT0.Add(time.Duration(i) * time.Hour)})
	}
	if err := lk.ImportDataset(dataset.Merge("cold-start-test", ds)); err != nil {
		t.Fatal(err)
	}
	insp := &countingInspector{calls: map[string]int{}}
	srv := &lakeserve.Server{Lake: lk, MaxConcurrent: 1, RequestTimeout: -1}
	srv.SetInspector(insp)
	hs := newResilientServer(t, srv)

	deadline := time.Now().Add(10 * time.Second)
	kickReadyz := func() {
		if code, _, body := getFull(t, hs.URL+"/readyz"); code != http.StatusServiceUnavailable {
			t.Fatalf("cold /readyz = %d: %s", code, body)
		}
	}
	awaitBlockedRead := func() {
		for fsys.BlockedReads() < 1 {
			if time.Now().After(deadline) {
				t.Fatal("no build ever reached the blocked lake read")
			}
			time.Sleep(time.Millisecond)
		}
	}
	// The first data request rides any 429 its slot probe below causes.
	c := apiclient.New(hs.URL)
	c.Retries = 50
	c.RetryBase = 5 * time.Millisecond
	done := make(chan error, 1)
	request := func() {
		go func() {
			_, err := c.TopPublishers(t.Context(), 20)
			done <- err
		}()
	}

	fsys.BlockReads()
	if readyzFirst {
		kickReadyz()
		awaitBlockedRead()
		request()
		// Once a probe of an unknown route (which touches no lake state)
		// is shed, the request holds the only admission slot.
		for {
			if code, _, _ := getFull(t, hs.URL+"/api/v1/no-such-route"); code == http.StatusTooManyRequests {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the first data request never took the admission slot")
			}
			time.Sleep(time.Millisecond)
		}
	} else {
		request()
		awaitBlockedRead()
		kickReadyz()
	}
	// Give the second build a moment to reach the snapshot path, then
	// heal the reads and let both builds settle.
	time.Sleep(50 * time.Millisecond)
	fsys.UnblockReads()
	if err := <-done; err != nil {
		t.Fatalf("first data request: %v", err)
	}
	for {
		var st lakeserve.StatsResponse
		if _, _, body := getFull(t, hs.URL+"/api/v1/stats"); json.Unmarshal(body, &st) == nil && st.RefreshState == "idle" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the background build never settled")
		}
		time.Sleep(time.Millisecond)
	}

	insp.mu.Lock()
	defer insp.mu.Unlock()
	if want := map[string]int{"www.promo-site.com": 1}; !reflect.DeepEqual(insp.calls, want) {
		t.Fatalf("Inspect calls = %v, want %v: one classification of the one lake version", insp.calls, want)
	}
}

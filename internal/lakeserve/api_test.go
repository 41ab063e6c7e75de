package lakeserve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"btpub/internal/dataset"
	"btpub/internal/lake"
	"btpub/internal/lakeserve"
	"btpub/internal/query"
)

// checkEnvelope asserts one error response: expected status, the JSON
// content type, and a well-formed {"error": {code, message}} body.
func checkEnvelope(t *testing.T, resp *http.Response, wantStatus int, wantCode string) {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Errorf("%s: status %d, want %d (%s)", resp.Request.URL, resp.StatusCode, wantStatus, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("%s: error content type %q, want application/json", resp.Request.URL, ct)
	}
	var env lakeserve.ErrorBody
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("%s: error body is not the envelope: %v in %s", resp.Request.URL, err, body)
	}
	if env.Error.Code != wantCode {
		t.Errorf("%s: error code %q, want %q", resp.Request.URL, env.Error.Code, wantCode)
	}
	if env.Error.Message == "" {
		t.Errorf("%s: empty error message", resp.Request.URL)
	}
}

// TestErrorEnvelopes drives every 4xx path (and both mux-generated
// statuses) and requires the envelope on each.
func TestErrorEnvelopes(t *testing.T) {
	lk := seedLake(t, lake.Options{})
	srv := newServer(t, lk)

	const v1 = lakeserve.APIPrefix
	get := func(path string) *http.Response {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	post := func(path, body string) *http.Response {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Bounds-checked GET parameters.
	checkEnvelope(t, get(v1+"/tables/2?n=0"), http.StatusBadRequest, "bad_param")
	checkEnvelope(t, get(v1+"/tables/2?n=-4"), http.StatusBadRequest, "bad_param")
	checkEnvelope(t, get(v1+"/tables/2?n=banana"), http.StatusBadRequest, "bad_param")
	checkEnvelope(t, get(v1+"/tables/2?n=2000000"), http.StatusBadRequest, "bad_param")
	checkEnvelope(t, get(v1+"/tables/1?format=xml"), http.StatusBadRequest, "bad_param")
	checkEnvelope(t, get(v1+"/tables/3?isps=OVH,,Comcast"), http.StatusBadRequest, "bad_param")
	checkEnvelope(t, get(v1+"/top-publishers?n=0"), http.StatusBadRequest, "bad_param")
	checkEnvelope(t, get(v1+"/publishers/classified?n=x"), http.StatusBadRequest, "bad_param")
	checkEnvelope(t, get(v1+"/fakes?n=-1"), http.StatusBadRequest, "bad_param")
	checkEnvelope(t, get(v1+"/torrents/recent?n=0"), http.StatusBadRequest, "bad_param")
	checkEnvelope(t, get(v1+"/torrents/recent?n=ten"), http.StatusBadRequest, "bad_param")
	checkEnvelope(t, get(v1+"/publishers/nobody"), http.StatusNotFound, "not_found")
	checkEnvelope(t, get(v1+"/torrents/banana/observations"), http.StatusBadRequest, "bad_param")
	checkEnvelope(t, get(v1+"/torrents/3/observations?limit=0"), http.StatusBadRequest, "bad_param")
	// A torrent ID past the int32 space would wrap onto torrent 0.
	checkEnvelope(t, get(v1+"/torrents/4294967296/observations"), http.StatusBadRequest, "bad_query")

	// The query endpoint's own failure modes.
	checkEnvelope(t, post("/api/v1/query", `{"group_by":{"key":"nope"}}`), http.StatusBadRequest, "bad_query")
	checkEnvelope(t, post("/api/v1/query", `not json`), http.StatusBadRequest, "bad_query")
	checkEnvelope(t, post("/api/v1/query", `{"cursor":"junk"}`), http.StatusBadRequest, "bad_cursor")
	checkEnvelope(t, post("/api/v1/query", `{"unknown_field":1}`), http.StatusBadRequest, "bad_query")
	checkEnvelope(t, post("/api/v1/query", `{"filter":{"torrent_ids":[4294967296]}}`), http.StatusBadRequest, "bad_query")

	// Mux-generated statuses wear the envelope too — including the
	// un-prefixed paths, which are not routes.
	checkEnvelope(t, get("/nope"), http.StatusNotFound, "not_found")
	checkEnvelope(t, get("/stats"), http.StatusNotFound, "not_found")
	checkEnvelope(t, get("/tables/2?n=5"), http.StatusNotFound, "not_found")
	checkEnvelope(t, get("/api/v1/nope"), http.StatusNotFound, "not_found")
	checkEnvelope(t, post("/api/v1/stats", `{}`), http.StatusMethodNotAllowed, "method_not_allowed")
	resp, err := http.Get(srv.URL + "/api/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	checkEnvelope(t, resp, http.StatusMethodNotAllowed, "method_not_allowed")
}

// postQuery round-trips one query through POST /api/v1/query.
func postQuery(t *testing.T, srvURL string, q query.Query) *query.Result {
	t.Helper()
	body, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srvURL+"/api/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("query content type %q", ct)
	}
	var res query.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	return &res
}

// TestQueryEndpoint exercises the full wire format: a grouped aggregate
// with ordering, and a cursor walk whose concatenation equals the
// unpaginated result.
func TestQueryEndpoint(t *testing.T) {
	lk := seedLake(t, lake.Options{})
	srv := newServer(t, lk)

	full := postQuery(t, srv.URL, query.Query{
		GroupBy: query.GroupBy{Key: query.ByPublisher},
		Aggs:    []string{query.AggObservations, query.AggDistinctIPs, query.AggTorrents},
		OrderBy: query.OrderBy{Field: query.AggObservations, Desc: true},
	})
	// seedLake: 8 publishers × 5 torrents × 25 observations each.
	if full.Total != 8 || len(full.Groups) != 8 {
		t.Fatalf("publishers = %+v", full.Groups)
	}
	for _, g := range full.Groups {
		if g.Aggs[query.AggObservations] != 125 || g.Aggs[query.AggTorrents] != 5 {
			t.Fatalf("group %+v", g)
		}
	}

	q := query.Query{
		GroupBy: query.GroupBy{Key: query.ByPublisher},
		Aggs:    []string{query.AggObservations, query.AggDistinctIPs, query.AggTorrents},
		OrderBy: query.OrderBy{Field: query.AggObservations, Desc: true},
		Limit:   3,
	}
	var walked []query.GroupRow
	for page := 0; ; page++ {
		res := postQuery(t, srv.URL, q)
		if res.Total != 8 {
			t.Fatalf("page %d total = %d", page, res.Total)
		}
		walked = append(walked, res.Groups...)
		if res.NextCursor == "" {
			break
		}
		q.Cursor = res.NextCursor
		if page > 5 {
			t.Fatal("cursor walk did not terminate")
		}
	}
	a, _ := json.Marshal(full.Groups)
	b, _ := json.Marshal(walked)
	if !bytes.Equal(a, b) {
		t.Fatalf("cursor walk != full result:\n%s\n%s", a, b)
	}

	// A time-window observations query against known fixture timing.
	res := postQuery(t, srv.URL, query.Query{
		Select: query.SelectObservations,
		Filter: query.Filter{TorrentIDs: []int{0}, MaxTime: serveT0.Add(30 * time.Minute)},
	})
	if res.Total != 4 { // observations at +0, +10m, +20m, +30m
		t.Fatalf("windowed observations = %d: %+v", res.Total, res.Observations)
	}
}

// TestQueryBodyTooLarge gates the request-size bound.
func TestQueryBodyTooLarge(t *testing.T) {
	lk := seedLake(t, lake.Options{})
	srv := newServer(t, lk)
	huge := fmt.Sprintf(`{"filter":{"publishers":[%q]}}`, strings.Repeat("x", 1<<21))
	resp, err := http.Post(srv.URL+"/api/v1/query", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	checkEnvelope(t, resp, http.StatusRequestEntityTooLarge, "body_too_large")
}

// TestQueryAsOfAndJournalStats: the wire-level time-travel contract. A
// query pinned to the journal head equals the unpinned result; after
// more observations commit, the pinned replay still returns the old
// bytes while unpinned moves on; an unserveable version is a 400
// bad_query envelope; and /api/v1/stats exposes the journal's head,
// commit count (one record per version) and on-disk footprint.
func TestQueryAsOfAndJournalStats(t *testing.T) {
	lk := seedLake(t, lake.Options{})
	srv := newServer(t, lk)

	q := query.Query{
		GroupBy: query.GroupBy{Key: query.ByPublisher},
		Aggs:    []string{query.AggObservations, query.AggDistinctIPs},
		OrderBy: query.OrderBy{Field: query.AggObservations, Desc: true},
	}
	before := postQuery(t, srv.URL, q)
	pin := lk.Version()
	qPin := q
	qPin.Filter.AsOf = pin
	if got, want := mustMarshal(t, postQuery(t, srv.URL, qPin)), mustMarshal(t, before); got != want {
		t.Fatalf("as_of head != unpinned:\n%s\n%s", got, want)
	}

	// Commit more observations for an existing publisher's torrent.
	for i := 0; i < 50; i++ {
		if err := lk.Append(dataset.Observation{
			TorrentID: 0, IP: fmt.Sprintf("30.0.0.%d", i%250),
			At: serveT0.Add(72*time.Hour + time.Duration(i)*time.Minute),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lk.Flush(); err != nil {
		t.Fatal(err)
	}
	if lk.Version() <= pin {
		t.Fatalf("flush did not commit (version still %d)", pin)
	}

	if got, want := mustMarshal(t, postQuery(t, srv.URL, qPin)), mustMarshal(t, before); got != want {
		t.Fatalf("pinned result drifted after new commits:\n%s\n%s", got, want)
	}
	if got := mustMarshal(t, postQuery(t, srv.URL, q)); got == mustMarshal(t, before) {
		t.Fatal("unpinned result ignored the new commits")
	}

	// A version past the head is the client's error, not the server's.
	qBad := q
	qBad.Filter.AsOf = lk.Version() + 100
	body, err := json.Marshal(qBad)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/api/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	checkEnvelope(t, resp, http.StatusBadRequest, "bad_query")

	// The stats document carries the journal fields.
	sresp, err := http.Get(srv.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st lakeserve.StatsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Lake.Version != lk.Version() {
		t.Fatalf("stats version %d, lake head %d", st.Lake.Version, lk.Version())
	}
	if st.Lake.Commits != int64(st.Lake.Version) || st.Lake.TotalBytes <= 0 {
		t.Fatalf("journal stats: %d commits for head v%d, %d bytes", st.Lake.Commits, st.Lake.Version, st.Lake.TotalBytes)
	}
}

func mustMarshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

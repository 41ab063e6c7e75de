package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"btpub/internal/apiclient"
	"btpub/internal/dataset"
	"btpub/internal/lake"
	"btpub/internal/lakeserve"
	"btpub/internal/query"
)

// request is one entry of the API schedule. route is the lakeserve
// route family; class is the /query class ("" for canned routes).
type request struct {
	route string
	class string
	q     *query.Query // POST /query body
	pred  lake.Predicate
	arg   int // n, or the torrent ID for observations
}

// key identifies a distinct request (requests with equal keys must get
// equal answers from an unchanged lake).
func (r request) key() string {
	if r.q != nil {
		b, _ := json.Marshal(r.q) // a validated query always marshals
		return r.route + " " + string(b)
	}
	return r.route + " " + strconv.Itoa(r.arg)
}

// mixCycle is the request mix per hundred requests: the composable
// /query endpoint (what btpub-query and follow-up studies send) makes
// up 62 %, the canned paper views (what btpub-analyze -remote and a
// dashboard poll) the rest.
var mixCycle = []struct {
	route, class string
	per100       int
}{
	{"query", "window", 30},
	{"query", "point", 20},
	{"query", "publisher", 10},
	{"query", "full", 2},
	{"top-publishers", "", 12},
	{"tables", "", 8},
	{"classified", "", 5},
	{"fakes", "", 5},
	{"observations", "", 5},
	{"alerts", "", 3},
}

// Distinct parameter values per class. Small enough that every distinct
// /query body can be checked against the in-memory executor after the
// run, large enough that consecutive requests rarely repeat a key.
const (
	windowPool    = 16
	pointPool     = 32
	publisherPool = 8
	torrentPool   = 16
	scheduleLen   = 2000
)

// buildSchedule derives the fixed request schedule from the dataset and
// the seed: the same (dataset, seed) always gives the same schedule, and
// every block of 100 holds exactly the mixCycle shares.
func buildSchedule(ds *dataset.Dataset, seed uint64) []request {
	rng := rand.New(rand.NewPCG(seed, 0x6d6978)) // "mix"
	span := ds.End.Sub(ds.Start)
	// Parameters are drawn one per equal stratum of their range (of the
	// campaign window, of the observations, of the torrents): every seed
	// then covers the whole range, and two seeds differ in where inside
	// each stratum they land, not in how much data they happen to touch.
	stratum := func(i, n int, size float64) float64 { return (float64(i) + rng.Float64()) * size / float64(n) }

	var windows, points, publishers, observations []request
	width := span / 50 // 2 % of the campaign window
	for i := 0; i < windowPool; i++ {
		from := ds.Start.Add(time.Duration(stratum(i, windowPool, float64(span-width))))
		f := query.Filter{MinTime: from, MaxTime: from.Add(width)}
		windows = append(windows, request{route: "query", class: "window",
			q: &query.Query{
				Filter:  f,
				GroupBy: query.GroupBy{Key: query.ByTimeBucket, Bucket: query.Duration(30 * time.Minute)},
				Aggs:    []string{query.AggObservations, query.AggDistinctIPs, query.AggSeeders},
			},
			pred: lake.Predicate{MinTime: f.MinTime, MaxTime: f.MaxTime},
		})
	}
	for i := 0; i < pointPool; i++ {
		ip := ds.Obs.IPString(int(stratum(i, pointPool, float64(ds.Obs.Len()))))
		points = append(points, request{route: "query", class: "point",
			q:    &query.Query{Select: query.SelectObservations, Filter: query.Filter{IPs: []string{ip}}, Limit: 1000},
			pred: lake.Predicate{IP: ip},
		})
	}
	byUser := map[string][]int{}
	for _, t := range ds.Torrents {
		if t.Username != "" {
			byUser[t.Username] = append(byUser[t.Username], t.TorrentID)
		}
	}
	names := make([]string, 0, len(byUser))
	for name := range byUser {
		names = append(names, name)
	}
	// The busiest publishers: the ones a per-publisher study asks about.
	slices.SortFunc(names, func(a, b string) int {
		if d := len(byUser[b]) - len(byUser[a]); d != 0 {
			return d
		}
		return strings.Compare(a, b)
	})
	for i := 0; i < publisherPool && i < len(names); i++ {
		publishers = append(publishers, request{route: "query", class: "publisher",
			q: &query.Query{
				Filter:  query.Filter{Publishers: []string{names[i]}},
				GroupBy: query.GroupBy{Key: query.ByISP},
				Aggs:    []string{query.AggObservations, query.AggDistinctIPs},
			},
			pred: lake.Predicate{TorrentIDs: byUser[names[i]]},
		})
	}
	full := request{route: "query", class: "full",
		q: &query.Query{
			GroupBy: query.GroupBy{Key: query.ByTorrent},
			Aggs:    []string{query.AggObservations, query.AggDistinctIPs},
			OrderBy: query.OrderBy{Field: query.AggDistinctIPs, Desc: true},
			Limit:   100,
		},
	}
	// Swarm sizes are heavy-tailed (a fifth of the torrents were never
	// seen with a peer), so torrents are drawn one per stratum of the
	// popularity ranking: every seed asks about the same spread of swarm
	// sizes, from the largest to an empty one.
	ix := ds.Obs.Index()
	ranked := slices.Clone(ds.Torrents)
	slices.SortFunc(ranked, func(a, b *dataset.TorrentRecord) int {
		if d := len(ix.Span(b.TorrentID)) - len(ix.Span(a.TorrentID)); d != 0 {
			return d
		}
		return a.TorrentID - b.TorrentID
	})
	for i := 0; i < torrentPool; i++ {
		observations = append(observations, request{route: "observations", arg: ranked[int(stratum(i, torrentPool, float64(len(ranked))))].TorrentID})
	}

	// Each class walks its pool in a seed-shuffled order, round and round,
	// so every distinct request is sent equally often: two seeds differ in
	// the parameters they drew and in the order of requests, not in how
	// often they happen to repeat an expensive one.
	pools := map[string][]request{"window": windows, "point": points, "publisher": publishers, "observations": observations}
	for _, name := range []string{"window", "point", "publisher", "observations"} {
		pool := pools[name]
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	}
	at := map[string]int{}
	next := func(name string) request {
		pool := pools[name]
		at[name]++
		return pool[(at[name]-1)%len(pool)]
	}
	pick := func(route, class string) request {
		switch {
		case class == "full":
			return full
		case class != "":
			return next(class)
		case route == "observations":
			return next(route)
		case route == "tables":
			return request{route: route, arg: 10}
		case route == "fakes":
			return request{route: route, arg: 50}
		case route == "alerts":
			return request{route: route}
		}
		return request{route: route, arg: 20} // top-publishers, classified
	}

	var out []request
	for len(out) < scheduleLen {
		var block []request
		for _, m := range mixCycle {
			for i := 0; i < m.per100; i++ {
				block = append(block, pick(m.route, m.class))
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out
}

// viaClient sends the request through apiclient, as btpub-query and
// btpub-analyze -remote do. The /query answer is returned for the
// oracle; canned routes only have to succeed.
func (r request) viaClient(ctx context.Context, c *apiclient.Client) (*query.Result, error) {
	var err error
	switch r.route {
	case "query":
		return c.Query(ctx, *r.q)
	case "top-publishers":
		_, err = c.TopPublishers(ctx, r.arg)
	case "tables":
		_, err = c.TableText(ctx, 2, url.Values{"n": {strconv.Itoa(r.arg)}})
	case "classified":
		_, err = c.Classified(ctx, r.arg)
	case "fakes":
		_, err = c.Fakes(ctx, r.arg)
	case "observations":
		_, err = c.Observations(ctx, r.arg, 1000)
	case "alerts":
		_, err = c.Alerts(ctx, 0, 0)
	default:
		err = fmt.Errorf("bench: unknown route %q", r.route)
	}
	return nil, err
}

// httpRequest builds the request the client would send, for driving the
// handler directly on a recorder.
func (r request) httpRequest(ctx context.Context) (*http.Request, error) {
	p := lakeserve.APIPrefix
	switch r.route {
	case "query":
		body, err := json.Marshal(r.q)
		if err != nil {
			return nil, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, p+"/query", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	case "top-publishers":
		p += "/top-publishers?n=" + strconv.Itoa(r.arg)
	case "tables":
		p += "/tables/2?n=" + strconv.Itoa(r.arg)
	case "classified":
		p += "/publishers/classified?n=" + strconv.Itoa(r.arg)
	case "fakes":
		p += "/fakes?n=" + strconv.Itoa(r.arg)
	case "observations":
		p += fmt.Sprintf("/torrents/%d/observations?limit=1000", r.arg)
	case "alerts":
		p += "/alerts"
	default:
		return nil, fmt.Errorf("bench: unknown route %q", r.route)
	}
	return http.NewRequestWithContext(ctx, http.MethodGet, p, nil)
}

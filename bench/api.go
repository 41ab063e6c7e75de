package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"btpub/internal/apiclient"
	"btpub/internal/lake"
	"btpub/internal/query"
	"btpub/internal/stats"
)

const (
	// readClients is api_read_mix's closed-loop client count: one per
	// core of the two-core reference machine. api_under_ingest gives one
	// of the two cores' worth of load to its writer instead.
	readClients = 2
	// The writer's schedule: writeRows observations per commit, one
	// commit every writeEvery, on a clock that does not slow when the
	// lake does — a crawler delivers whether or not readers are busy.
	writeRows  = 1000
	writeEvery = 250 * time.Millisecond
	// warmRequests of the schedule run before the clock starts, so that
	// the lake's metadata and postings caches are as a long-running
	// server has them.
	warmRequests = 25
)

// countingTransport counts what the server answered underneath
// apiclient's retries: round trips, 429 sheds, 503s, and answers served
// from a snapshot that lagged the lake.
type countingTransport struct {
	*http.Transport
	trips, shed, unavailable, stale atomic.Int64
}

func newCountingTransport() *countingTransport {
	return &countingTransport{Transport: http.DefaultTransport.(*http.Transport).Clone()}
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.Transport.RoundTrip(req)
	t.trips.Add(1)
	if err != nil {
		return resp, err
	}
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		t.shed.Add(1)
	case http.StatusServiceUnavailable:
		t.unavailable.Add(1)
	}
	if resp.Header.Get("X-Btpub-Snapshot-Stale") != "" {
		t.stale.Add(1)
	}
	return resp, nil
}

// reset zeroes the counters once warm-up is over.
func (t *countingTransport) reset() {
	for _, c := range []*atomic.Int64{&t.trips, &t.shed, &t.unavailable, &t.stale} {
		c.Store(0)
	}
}

// refused is the number of answers that were a refusal or a timeout,
// whether or not a retry then succeeded.
func (t *countingTransport) refused() int { return int(t.shed.Load() + t.unavailable.Load()) }

// apiWorkload is the two API workloads. Both import the fixture into a
// lake, settle and warm it, and walk the same seed-shuffled request mix
// through apiclient in a closed loop (every caller of this API waits
// for its reply). api_read_mix reads a lake at rest with two clients;
// api_under_ingest holds back the last quarter of the observations and
// has one client read while a writer commits them on a fixed schedule,
// so that a read gain bought with writer stalls or rebuild storms shows.
func apiWorkload(ctx context.Context, r *run, ingest bool) error {
	setup := time.Now()
	w, err := r.crawlWorld(ctx)
	if err != nil {
		return err
	}
	ds := w.ds
	lkDir := r.tmp.dir("lake")
	lk, err := lake.Open(lkDir, lakeOptions())
	if err != nil {
		return err
	}
	defer func() {
		if lk != nil {
			lk.Close()
		}
	}()
	loaded := ds.Obs.Len()
	if ingest {
		loaded = loaded * 3 / 4
		lk.ExtendWindow(ds.Name, ds.Start, ds.End)
		if _, err := r.timed("lake.load", spanRef{}, 0, func(spanRef) error {
			if err := lk.AddTorrents(ds.Torrents); err != nil {
				return err
			}
			if err := lk.AddUsers(ds.Users); err != nil {
				return err
			}
			for i := 0; i < loaded; i++ {
				if err := lk.Append(ds.Obs.At(i)); err != nil {
					return err
				}
			}
			return lk.Flush()
		}); err != nil {
			return fmt.Errorf("load: %w", err)
		}
	} else {
		d, err := r.timed("lake.import", spanRef{}, 0, func(spanRef) error { return lk.ImportDataset(ds) })
		if err != nil {
			return fmt.Errorf("import: %w", err)
		}
		r.set("lake.import_obs_per_s", ratio(float64(loaded), seconds(d)))
	}
	// A server is started on a lake whose import-time segments were folded
	// long ago; without this the background compactor would retire them
	// in the middle of the timed part.
	if lk, err = r.settle(lk, lkDir); err != nil {
		return err
	}
	srv, err := startServer(lk, w)
	if err != nil {
		return err
	}
	defer srv.stop(ctx)
	client := srv.client
	sched := buildSchedule(ds, r.seed)
	for _, req := range sched[len(sched)-warmRequests:] {
		if _, err := req.viaClient(ctx, client); err != nil {
			return fmt.Errorf("warm-up %s: %w", req.route, err)
		}
	}
	srv.stats.reset()
	r.set("setup_s", seconds(time.Since(setup)))

	p := &apiPass{r: r, lk: lk, client: client, sched: sched, answers: map[string]*query.Result{}, layers: map[string]time.Duration{}}
	if r.tr != nil {
		p.handler = srv.srv.Handler()
		if p.exec, err = query.NewLake(lk, w.db); err != nil {
			return err
		}
	}
	clients := readClients
	if ingest || r.tr != nil {
		clients = 1
	}
	runtime.GC() // the crawl's garbage must not set the timed part's GC pace
	mem := markMem()
	start := time.Now()
	deadline := start.Add(r.seconds)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.read(ctx, deadline)
		}()
	}
	written := loaded
	var writeErr error
	if ingest {
		wg.Add(1)
		go func() {
			defer wg.Done()
			written, writeErr = p.write(ctx, w, srv, start, deadline, loaded)
		}()
	}
	wg.Wait()
	r.timedWall = time.Since(start)
	bytes, _ := mem.since()
	if writeErr != nil {
		return fmt.Errorf("writer: %w", writeErr)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	lat := ms(r.samplesOf("api"))
	if len(lat) == 0 {
		return fmt.Errorf("no request completed in %v", r.seconds)
	}
	r.set("ops_per_s", float64(len(lat))/seconds(r.timedWall))
	r.set("wait_ms_p50", stats.Median(lat))
	r.set("wait_ms_p95", stats.Quantile(lat, 0.95))
	r.set("alloc_bytes_per_op", bytes/float64(len(lat)))
	r.count(0, srv.stats.refused())

	if r.tr != nil {
		trips := srv.stats.trips.Load()
		r.set("lakeserve.shed_429", float64(srv.stats.shed.Load()))
		r.set("lakeserve.stale_served_ratio", ratio(float64(srv.stats.stale.Load()), float64(trips)))
		r.set("apiclient.retries", float64(trips-int64(len(lat))))
		if st, err := client.Stats(ctx); err == nil {
			r.set("snapshot.lag_versions_end", float64(lk.Version()-st.AnalysisVersion))
			r.set("delta.delta_refreshes", float64(st.DeltaRefreshes))
			r.set("delta.full_rebuilds", float64(st.FullRebuilds))
			r.set("delta.full_share", ratio(float64(st.FullRebuilds), float64(st.FullRebuilds+st.DeltaRefreshes)))
		}
		p.layerMetrics(ingest)
	}

	// Oracles, untimed. At rest, every distinct /query answer must equal
	// the in-memory executor's over the dataset the lake was imported
	// from. Under ingest answers depend on when they were asked, so the
	// check is on what is served once the writer has stopped.
	if ingest {
		r.checkServed(ctx, lk, w.db, servedBy(ctx, srv))
	} else {
		oracle, err := query.NewMemory(ds, w.db)
		if err != nil {
			return err
		}
		for _, req := range sched {
			got, ok := p.answers[req.key()]
			if !ok {
				continue
			}
			delete(p.answers, req.key())
			want, err := oracle.Execute(ctx, *req.q)
			if err != nil {
				return fmt.Errorf("oracle query: %w", err)
			}
			if !sameJSON(got, want) {
				r.problem("/query %s: the server's answer differs from the in-memory executor's", req.key())
			}
		}
	}
	if err := srv.stop(ctx); err != nil {
		return err
	}
	if r.tr != nil {
		if err := r.probeStorage(ctx, lk); err != nil {
			return err
		}
		if !ingest {
			if err := r.probeCompaction(ds); err != nil {
				return err
			}
		}
	}
	if lk, err = r.finalCompact(lk, lkDir, written); err != nil {
		return err
	}
	r.checkLake(ctx, lk, written, len(ds.Torrents))
	return nil
}

func sameJSON(a, b any) bool {
	x, err1 := json.Marshal(a)
	y, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && string(x) == string(y)
}

// apiPass is the state the load-generating goroutines share.
type apiPass struct {
	r      *run
	lk     *lake.Lake
	client *apiclient.Client
	sched  []request
	next   atomic.Int64

	// traced only
	handler http.Handler
	exec    *query.Lake

	mu      sync.Mutex
	answers map[string]*query.Result // first answer per distinct /query
	layers  map[string]time.Duration // traced: time per layer group
	self    []float64                // handler − execute, ms, /query only
	over    []float64                // round trip − handler, ms
	sizes   map[string][]float64
	plans   map[string]*planStat
}

type planStat struct{ opened, rowsPerMatch []float64 }

// read is one closed-loop client: it takes the next request of the
// shared schedule, waits for the answer, and repeats until the deadline.
func (p *apiPass) read(ctx context.Context, deadline time.Time) {
	for time.Now().Before(deadline) && ctx.Err() == nil {
		i := int(p.next.Add(1)) - 1
		req := p.sched[i%len(p.sched)]
		if p.handler != nil {
			p.replay(ctx, req, i)
			continue
		}
		t0 := time.Now()
		res, err := req.viaClient(ctx, p.client)
		p.done(req, res, err, time.Since(t0))
	}
}

// done books one finished request.
func (p *apiPass) done(req request, res *query.Result, err error, d time.Duration) {
	p.r.sample("api", d)
	if err != nil {
		p.r.count(1, 1)
		log.Printf("bench: %s failed: %v", req.route, err)
		return
	}
	p.r.count(1, 0)
	if res != nil {
		p.mu.Lock()
		if _, ok := p.answers[req.key()]; !ok {
			p.answers[req.key()] = res
		}
		p.mu.Unlock()
	}
}

// replay is the traced client's step: the same request four ways — over
// TCP through apiclient, to the handler on a recorder, to the query
// executor, and as a bare scan of the compiled predicate — so that each
// layer's own time is the difference between neighbours.
func (p *apiPass) replay(ctx context.Context, req request, op int) {
	r := p.r
	root := r.tr.start("request", spanRef{}, op)
	defer root.end()
	var res *query.Result
	tcp, err := r.timed("apiclient."+req.route, root, op, func(spanRef) (err error) {
		res, err = req.viaClient(ctx, p.client)
		return err
	})
	p.done(req, res, err, tcp)
	if err != nil {
		return
	}
	hreq, err := req.httpRequest(ctx)
	if err != nil {
		r.problem("build %s request: %v", req.route, err)
		return
	}
	rec := httptest.NewRecorder()
	handler, err := r.timed("lakeserve.handler."+req.route, root, op, func(spanRef) error {
		p.handler.ServeHTTP(rec, hreq)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s on a recorder: status %d", req.route, rec.Code)
		}
		return nil
	})
	if err != nil {
		return
	}
	var exec time.Duration
	var plan lake.ScanPlan
	var matched atomic.Int64
	if req.q != nil {
		exec, err = r.timed("query.execute."+req.class, root, op, func(spanRef) error {
			_, err := p.exec.Execute(ctx, *req.q)
			return err
		})
		if err != nil {
			return
		}
		if _, err := r.timed("query.explain", root, op, func(spanRef) error {
			_, err := p.exec.Explain(ctx, *req.q)
			return err
		}); err != nil {
			return
		}
		if plan, err = p.lk.PlanScan(req.pred); err != nil {
			return
		}
		_, err = r.timed("lake.scan", root, op, func(spanRef) error {
			return p.lk.Scan(ctx, req.pred, func(b *lake.Batch) error {
				matched.Add(int64(b.Len()))
				return nil
			})
		})
		if err != nil {
			return
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.sizes == nil {
		p.sizes, p.plans = map[string][]float64{}, map[string]*planStat{}
	}
	p.sizes[req.route] = append(p.sizes[req.route], float64(rec.Body.Len()))
	p.over = append(p.over, seconds(tcp-handler)*1e3)
	p.layers["serve"] += max(tcp-exec, 0)
	if req.q != nil {
		p.self = append(p.self, seconds(handler-exec)*1e3)
		p.layers["query_scan"] += min(exec, tcp)
		ps := p.plans[req.class]
		if ps == nil {
			ps = &planStat{}
			p.plans[req.class] = ps
		}
		ps.opened = append(ps.opened, ratio(float64(len(plan.Opened)), float64(plan.Segments)))
		ps.rowsPerMatch = append(ps.rowsPerMatch, ratio(float64(plan.Rows), float64(matched.Load())))
	}
}

// write is api_under_ingest's open-loop writer: commit k is due at
// start + k·writeEvery whatever happened to commit k−1, and how late
// each one started is recorded. It returns the number of observations
// the lake holds when it stops.
func (p *apiPass) write(ctx context.Context, w *world, srv *server, start, deadline time.Time, at int) (int, error) {
	r := p.r
	obs := &w.ds.Obs
	for k := 0; at < obs.Len(); k++ {
		due := start.Add(time.Duration(k) * writeEvery)
		if !due.Before(deadline) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			select {
			case <-ctx.Done():
				return at, ctx.Err()
			case <-time.After(wait):
			}
		}
		r.sample("writer.late", max(time.Since(due), 0))
		root := r.tr.start("write", spanRef{}, k)
		end := min(at+writeRows, obs.Len())
		d, err := r.timed("lake.append", root, k, func(spanRef) error {
			for ; at < end; at++ {
				if err := p.lk.Append(obs.At(at)); err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			var f time.Duration
			f, err = r.timed("lake.flush", root, k, func(spanRef) error { return p.lk.Flush() })
			d += f
		}
		root.end()
		if err != nil {
			return at, err
		}
		p.mu.Lock()
		p.layers["lake_write"] += d
		p.mu.Unlock()
		srv.srv.Refresh()
	}
	return at, nil
}

// layerMetrics derives the traced API run's per-layer numbers from the
// four-way replays.
func (p *apiPass) layerMetrics(ingest bool) {
	r := p.r
	for route, sizes := range p.sizes {
		r.set("lakeserve.handler_ms_p50."+route, r.p50ms("lakeserve.handler."+route))
		r.set("lakeserve.resp_bytes_p50."+route, stats.Median(sizes))
	}
	for class, ps := range p.plans {
		r.set("lake.plan.opened_ratio."+class, stats.Median(ps.opened))
		r.set("lake.plan.rows_per_match."+class, stats.Median(ps.rowsPerMatch))
		r.set("query.exec_ms_p50."+class, r.p50ms("query.execute."+class))
	}
	r.set("query.explain_ms_p50", r.p50ms("query.explain"))
	r.set("lakeserve.self_ms_p50.query", stats.Median(p.self))
	r.set("apiclient.overhead_ms_p50", stats.Median(p.over))
	if ingest {
		flushes := ms(r.samplesOf("lake.flush"))
		r.set("lake.flush_ms_p50", stats.Median(flushes))
		r.set("lake.flush_ms_p95", stats.Quantile(flushes, 0.95))
		r.set("writer.late_ms_p95", stats.Quantile(ms(r.samplesOf("writer.late")), 0.95))
	}
	r.setShares(p.layers)
}

package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"btpub/internal/alert"
	"btpub/internal/analysis"
	"btpub/internal/apiclient"
	"btpub/internal/delta"
	"btpub/internal/lake"
	"btpub/internal/lakeserve"
	"btpub/internal/stats"
)

// replayGrid is how finely live_replay cuts the campaign window. The
// grid never changes, so a slice is the same amount of data-clock time
// (and detection delay is in the same unit) whatever the budget.
const replayGrid = 300

// replayPerSecond sizes the timed part: it replays this many slices per
// second of --seconds, from an empty lake (the two-core reference machine
// replays the first 170 in about 8 s). The work is fixed by the budget
// and not by how fast the code under test gets through it, because what
// a commit costs grows with the lake: a replay that stopped on the clock
// would let faster code reach later, dearer slices, and a change in
// refresh cost would show in the medians at about half its size.
const replayPerSecond = 17

// pollEvery is the monitor client's poll interval while it waits for
// the feed to reach a commit. It bounds how finely commit→feed time is
// resolved.
const pollEvery = time.Millisecond

// server is a lakeserve.Server on a loopback listener, as btpub-serve
// runs it, with the one client the workload talks to it through.
type server struct {
	srv     *lakeserve.Server
	http    *http.Server
	done    chan error
	stats   *countingTransport
	client  *apiclient.Client
	stopped bool
}

func startServer(lk *lake.Lake, w *world) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &lakeserve.Server{Lake: lk, Geo: w.db}, done: make(chan error, 1), stats: newCountingTransport()}
	s.http = &http.Server{Handler: s.srv.Handler()}
	s.client = &apiclient.Client{
		BaseURL: "http://" + ln.Addr().String(),
		HTTP:    &http.Client{Transport: s.stats, Timeout: apiclient.DefaultTimeout},
	}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop drains the server and waits for its goroutines. A nil server (the
// traced replay has none) and a second call are no-ops.
func (s *server) stop(ctx context.Context) error {
	if s == nil || s.stopped {
		return nil
	}
	s.stopped = true
	s.stats.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	s.srv.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// monitor is the consumer of the alert feed during a replay. Untraced,
// it is a client polling GET /api/v1/alerts on a real server; traced, it
// is a Maintainer and an Engine the harness composes itself, so that
// each stage of a refresh is a span of its own.
type monitor struct {
	r      *run
	lk     *lake.Lake
	cursor uint64

	client *apiclient.Client // untraced

	maint *delta.Maintainer // traced
	eng   *alert.Engine
	seen  uint64 // version the maintainer last served
}

// await blocks until the feed reflects journal version v and returns the
// alerts that changed since the previous call. Samples and spans go
// under stage (see replay.ingest).
func (m *monitor) await(ctx context.Context, v uint64, stage string, parent spanRef, op int) ([]alert.Alert, error) {
	if m.client == nil {
		return m.refresh(ctx, stage, parent, op)
	}
	var changed []alert.Alert
	for {
		feed, err := m.client.Alerts(ctx, m.cursor, 0)
		if err != nil {
			return nil, fmt.Errorf("poll alerts: %w", err)
		}
		changed = append(changed, feed.Alerts...)
		m.cursor = feed.Version
		if feed.Version >= v {
			return changed, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(pollEvery):
		}
	}
}

// refresh is the traced monitor's step: the journal diff the maintainer
// is about to read (as a probe of its own), the refresh, the evaluation.
func (m *monitor) refresh(ctx context.Context, stage string, parent spanRef, op int) ([]alert.Alert, error) {
	r := m.r
	if m.seen != 0 {
		if _, err := r.timed(stage+"lake.readdiff", parent, op, func(spanRef) error {
			_, err := m.lk.ReadDiff(ctx, m.seen)
			return err
		}); err != nil {
			return nil, err
		}
	}
	var snap *delta.Snapshot
	d, err := r.timed(stage+"delta.refresh", parent, op, func(spanRef) (err error) {
		snap, err = m.maint.Refresh(ctx)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.sample(stage+"delta.refresh_"+string(snap.Mode), d)
	m.seen = snap.Version
	scored := len(snap.Changed)
	if snap.ChangedAll {
		scored = len(snap.An.Facts.Users)
	}
	if stage == "" {
		r.observe("alert.subjects_scored_p50", float64(scored))
	}
	r.timed(stage+"alert.evaluate", parent, op, func(spanRef) error {
		m.eng.Evaluate(snap)
		return nil
	})
	feed := m.eng.Since(m.cursor)
	m.cursor = feed.Version
	return feed.Alerts, nil
}

// served returns what the monitor's source serves at the lake head,
// for the snapshot oracle.
func (m *monitor) served(ctx context.Context, srv *server) func() (*analysis.Analysis, uint64, error) {
	if srv != nil {
		return servedBy(ctx, srv)
	}
	return func() (*analysis.Analysis, uint64, error) {
		snap, err := m.maint.Refresh(ctx)
		if err != nil {
			return nil, 0, err
		}
		return snap.An, snap.Version, nil
	}
}

// replay is one live_replay run's state: the sliced campaign, the lake
// it arrives in, the monitor watching the feed, and which planted
// identity fired in which slice.
type replay struct {
	r       *run
	w       *world
	sl      replaySlices
	lk      *lake.Lake
	mon     *monitor
	obsAt   int            // observations delivered so far
	firedAt map[string]int // planted identity → slice its first alert appeared in
}

// untimed prefixes the samples and spans of the catch-up commit that
// follows the timed part, so that they stay out of its statistics.
const untimed = "untimed."

// ingest delivers slices [from, to) as one commit and waits until the
// feed reflects it. It returns the number of observations delivered.
func (p *replay) ingest(ctx context.Context, from, to int, stage string, withUsers bool) (int, error) {
	r, lk, ds := p.r, p.lk, p.w.ds
	root := r.tr.start(stage+"slice", spanRef{}, from)
	defer root.end()
	end := p.sl.obsEnd[to-1]
	rows := end - p.obsAt
	if _, err := r.timed(stage+"lake.append", root, from, func(spanRef) error {
		for c := from; c < to; c++ {
			if len(p.sl.recs[c]) > 0 {
				if err := lk.AddTorrents(p.sl.recs[c]); err != nil {
					return err
				}
			}
		}
		for ; p.obsAt < end; p.obsAt++ {
			if err := lk.Append(ds.Obs.At(p.obsAt)); err != nil {
				return err
			}
		}
		if withUsers {
			return lk.AddUsers(ds.Users)
		}
		return nil
	}); err != nil {
		return rows, err
	}
	before := lk.Version()
	if _, err := r.timed(stage+"lake.flush", root, from, func(spanRef) error { return lk.Flush() }); err != nil {
		return rows, err
	}
	v := lk.Version()
	if v == before {
		return rows, nil // an empty slice commits nothing
	}
	_, err := r.timed(stage+"feed.wait", root, from, func(wait spanRef) error {
		changed, err := p.mon.await(ctx, v, stage, wait, from)
		for _, a := range changed {
			if _, ok := p.firedAt[a.Subject]; !ok && a.State == alert.StateFiring && p.w.planted[a.Subject] {
				p.firedAt[a.Subject] = to - 1
			}
		}
		return err
	})
	return rows, err
}

// liveReplay is the §7 monitor's freshness path: the fixture campaign,
// crawled during set-up, arrives on its own clock in slices — records
// and observations appended and flushed into a lake behind a server —
// and after each commit the monitor waits until the alert feed reflects
// it. The wait is what a subscriber sees between a publisher's upload
// reaching the lake and the alert about it.
//
// What a commit costs the snapshot layers grows with the lake (about
// eightfold over the first two hundred slices), so the timed part is a
// fixed stretch of the grid (replayPerSecond). Starting it on a
// part-filled lake was tried and measured no steadier — the lake crosses
// the compactor's TargetRows inside the timed part — so the replay starts
// from an empty lake, as a monitor's first day does.
func liveReplay(ctx context.Context, r *run) error {
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
	lk.ExtendWindow(ds.Name, ds.Start, ds.End)

	mon := &monitor{r: r, lk: lk}
	var srv *server
	if r.tr == nil {
		if srv, err = startServer(lk, w); err != nil {
			return err
		}
		mon.client = srv.client
	} else {
		mon.maint, mon.eng = delta.NewMaintainer(lk, w.db, 0), alert.NewEngine()
	}
	defer srv.stop(ctx)
	p := &replay{r: r, w: w, sl: sliceDataset(ds, replayGrid, r.seed), lk: lk, mon: mon, firedAt: map[string]int{}}
	r.set("setup_s", seconds(time.Since(setup)))

	var heap *heapWatch
	if r.tr != nil {
		heap = watchHeap()
	}
	runtime.GC() // the crawl's garbage must not set the timed part's GC pace
	mem := markMem()
	start := time.Now()
	timedSlices := min(replayGrid-1, replayPerSecond*int(r.seconds/time.Second))
	replayed, done := 0, 0
	for done < timedSlices {
		rows, err := p.ingest(ctx, done, done+1, "", false)
		if err != nil {
			return fmt.Errorf("slice %d: %w", done, err)
		}
		replayed += rows
		done++
	}
	r.timedWall = time.Since(start)
	bytes, _ := mem.since()
	waits := ms(r.samplesOf("feed.wait"))
	if replayed == 0 || len(waits) == 0 {
		return fmt.Errorf("the first %d slices hold no observation", timedSlices)
	}
	r.set("ops_per_s", float64(replayed)/seconds(r.timedWall))
	r.set("wait_ms_p50", stats.Median(waits))
	r.set("wait_ms_p95", stats.Quantile(waits, 0.95))
	r.set("alloc_bytes_per_op", bytes/float64(replayed))
	if heap != nil {
		r.set("campaign.peak_heap_mb", heap.peakMB())
	}
	r.detection(firstUploadSlice(w, replayGrid, r.seed), p.firedAt, done)
	if r.tr != nil {
		r.replayLayers(mon, replayed)
		r.setShares(groupSelf(r.tr.all(), "slice"))
	}

	// Untimed: the rest of the campaign and the user records arrive as
	// one commit, so the oracles and the disk footprint are taken over
	// the whole fixture, as on the other workloads.
	if _, err := p.ingest(ctx, done, replayGrid, untimed, true); err != nil {
		return fmt.Errorf("catch-up: %w", err)
	}
	if srv != nil {
		r.count(0, srv.stats.refused())
	}
	if r.tr != nil {
		if err := r.probeStorage(ctx, lk); err != nil {
			return err
		}
	}
	r.checkServed(ctx, lk, w.db, mon.served(ctx, srv))
	if err := srv.stop(ctx); err != nil {
		return err
	}
	if lk, err = r.finalCompact(lk, lkDir, ds.NumObservations()); err != nil {
		return err
	}
	r.checkLake(ctx, lk, ds.NumObservations(), len(ds.Torrents))
	return nil
}

// detection scores the alert feed against the planted fake publishers
// whose first upload fell inside the slices delivered so far: how many
// fired before the replay stopped, and how many slices after their
// first upload.
func (r *run) detection(firstUpload, firedAt map[string]int, done int) {
	planted, fired := 0, 0
	var delays []float64
	for name, first := range firstUpload {
		if first >= done {
			continue
		}
		planted++
		if at, ok := firedAt[name]; ok {
			fired++
			delays = append(delays, float64(at-first))
		}
	}
	r.set("alert.detect_recall", ratio(float64(fired), float64(planted)))
	r.set("alert.detect_delay_slices_p50", stats.Median(delays))
	r.set("alert.planted", float64(planted))
}

// replayLayers derives the traced replay's per-layer numbers.
func (r *run) replayLayers(mon *monitor, replayed int) {
	r.set("lake.append_ns_per_obs", ratio(float64(total(r.samplesOf("lake.append"))), float64(replayed)))
	flushes := ms(r.samplesOf("lake.flush"))
	r.set("lake.flush_ms_p50", stats.Median(flushes))
	r.set("lake.flush_ms_p95", stats.Quantile(flushes, 0.95))
	r.set("lake.readdiff_ms_p50", r.p50ms("lake.readdiff"))
	r.set("delta.refresh_delta_ms_p50", r.p50ms("delta.refresh_delta"))
	r.set("delta.refresh_full_ms_p50", r.p50ms("delta.refresh_full"))
	deltas, fulls := len(r.samplesOf("delta.refresh_delta")), len(r.samplesOf("delta.refresh_full"))
	r.set("delta.delta_refreshes", float64(deltas))
	r.set("delta.full_rebuilds", float64(fulls))
	r.set("delta.full_share", ratio(float64(fulls), float64(fulls+deltas)))
	r.set("alert.evaluate_ms_p50", r.p50ms("alert.evaluate"))
	firing, resolved := 0, 0
	for _, a := range mon.eng.Since(0).Alerts {
		if a.State == alert.StateFiring {
			firing++
		} else {
			resolved++
		}
	}
	r.set("alert.fired", float64(firing+resolved))
	r.set("alert.resolved", float64(resolved))
}

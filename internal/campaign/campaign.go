// Package campaign wires population → ecosystem → crawler into one
// reproducible measurement run. It is the entry point used by the
// experiment harness, the benchmarks and the examples to regenerate the
// paper's datasets end to end.
//
// # Sharded execution
//
// A campaign can split its world into N shards, each running a complete
// ecosystem+crawler pipeline on its own goroutine — the parallel analogue
// of the paper's hundreds of simultaneous vantage machines. Publishers are
// assigned to shards by ID, every per-torrent random stream is derived
// purely from (Seed, torrent ID), and the per-shard datasets are merged
// into one canonically ordered dataset, so the output is byte-identical
// for any shard count (and any GOMAXPROCS) at a fixed Seed.
//
// # Sockets
//
// With Spec.Sockets every shard serves its portal and tracker over a
// loopback HTTP server and its peers over the ecosystem's TCP gateway, and
// the crawler reaches them through the same clients a crawl of real
// servers would use. Nothing else changes: the shard's sim clock still
// fires one callback at a time, each request is answered at that
// callback's instant, and the dataset is byte-identical to the in-process
// run.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"sync"
	"time"

	"btpub/internal/crawler"
	"btpub/internal/dataset"
	"btpub/internal/ecosystem"
	"btpub/internal/geoip"
	"btpub/internal/lake"
	"btpub/internal/population"
	"btpub/internal/portal"
	"btpub/internal/simclock"
	"btpub/internal/tracker"
)

// Style selects which of the paper's datasets the run mimics.
type Style int

const (
	// PB10 is the full methodology: usernames from RSS, continuous
	// tracker polling, wire-level seeder identification.
	PB10 Style = iota
	// PB09 queries the tracker only once per torrent (Section 2.1).
	PB09
	// MN08 records no usernames; publishers are identified by IP only.
	MN08
)

// String implements fmt.Stringer.
func (s Style) String() string {
	switch s {
	case PB10:
		return "pb10"
	case PB09:
		return "pb09"
	case MN08:
		return "mn08"
	default:
		return fmt.Sprintf("Style(%d)", int(s))
	}
}

// ParseStyle maps a dataset style name ("pb10", "pb09", "mn08") to its
// Style, the inverse of Style.String.
func ParseStyle(s string) (Style, error) {
	switch s {
	case "pb10":
		return PB10, nil
	case "pb09":
		return PB09, nil
	case "mn08":
		return MN08, nil
	}
	return 0, fmt.Errorf("campaign: unknown style %q", s)
}

// Spec configures a campaign run.
type Spec struct {
	// Scale shrinks the pb10-shaped world (1.0 = full size).
	Scale float64
	// Seed controls world generation and ecosystem randomness.
	Seed uint64
	// MeanDownloads overrides the population default (0 keeps it).
	MeanDownloads float64
	// Style selects the dataset flavour.
	Style Style
	// Scenarios switches on adversarial publisher behaviour profiles in
	// the generated world (population.Scenario bitmask; 0 = cooperative
	// world). See population.ParseScenarios for the profile names.
	Scenarios population.Scenario
	// DatasetName overrides the Style name.
	DatasetName string
	// Shards splits the world into this many deterministic shards, each
	// crawled by its own goroutine (0 or 1 = serial). The merged dataset is
	// byte-identical for any shard count at a fixed Seed.
	Shards int
	// Workers is ignored; it stays because bench/ sets it.
	Workers int
	// Lake, when non-nil, persists the campaign into the lake. A serial
	// run (Shards <= 1) streams observations into the lake live while the
	// crawl records them and commits torrent/user records at the end; a
	// sharded run imports the merged dataset after the crawl (shard-local
	// torrent IDs only become globally meaningful at merge). Either way
	// torrent IDs are offset past the lake's existing contents, so
	// successive campaigns accumulate instead of colliding. Campaigns
	// sharing one lake must run sequentially or use Shards > 1: the
	// import path reserves its ID range atomically, but two concurrent
	// live streams would claim the same base.
	Lake *lake.Lake
	// Sockets crawls each shard over loopback sockets (HTTP portal and
	// tracker, TCP wire gateway) instead of in-process clients. The
	// dataset is the same; only the transport differs.
	Sockets bool
}

// ShardRun exposes one shard's live pipeline for ground-truth access.
type ShardRun struct {
	Index   int
	Eco     *ecosystem.Ecosystem
	Crawler *crawler.Crawler
}

// Result bundles the run artefacts with full ground-truth access.
type Result struct {
	Spec    Spec
	Dataset *dataset.Dataset
	World   *population.World
	// Shards holds every shard's ecosystem and crawler. Ground truth for a
	// torrent lives in the shard that owns its publisher.
	Shards []ShardRun
	// Eco and Crawler alias shard 0. In a serial run (Shards <= 1) they see
	// the whole world; in a sharded run use Shards (ground truth) and
	// Stats() (aggregate counters) instead.
	Eco     *ecosystem.Ecosystem
	Crawler *crawler.Crawler
	DB      *geoip.DB
	// Elapsed is the wall-clock cost of the virtual campaign.
	Elapsed time.Duration
}

// drainDays keeps crawling after the last publication so late swarms are
// drained.
const drainDays = 5

// Run executes the campaign: generate the world, stand up the ecosystem,
// crawl it for the whole campaign window plus drain, run the final sweep,
// and return the merged dataset. It is the synchronous entry point; use
// RunContext to make the crawl cancellable.
func Run(spec Spec) (*Result, error) {
	return RunContext(context.Background(), spec)
}

// RunContext is Run with a caller-owned context threaded through every
// shard's crawl and post-campaign enrichment sweep; once it is cancelled
// the crawlers stop querying and the run returns its error.
func RunContext(ctx context.Context, spec Spec) (*Result, error) {
	if spec.Scale <= 0 {
		return nil, errors.New("campaign: Scale must be positive")
	}
	shards := spec.Shards
	if shards <= 0 {
		shards = 1
	}
	// Result.Elapsed is wall-clock telemetry, read through the explicit
	// Real seam rather than time.Now so the determinism analyzer can hold
	// the rest of the package to sim time.
	wall := simclock.Real{}
	start := wall.Now()

	db, err := geoip.DefaultDB()
	if err != nil {
		return nil, err
	}
	params := population.DefaultParams(spec.Scale)
	if spec.Seed != 0 {
		params.Seed = spec.Seed
	}
	if spec.MeanDownloads > 0 {
		params.MeanDownloads = spec.MeanDownloads
	}
	params.Scenarios = spec.Scenarios
	world, err := population.Generate(params, db)
	if err != nil {
		return nil, err
	}
	// One consumption plan shared by every shard (it is a pure function of
	// world and seed, so sharing it only saves work and memory).
	consumption := ecosystem.PlanConsumption(world, params.Seed)
	end := world.Start.Add(time.Duration(population.CampaignDays+drainDays) * 24 * time.Hour)

	name := spec.DatasetName
	if name == "" {
		name = spec.Style.String()
	}

	// A serial run can stream observations into the lake as the crawl
	// records them (live ingest); sharded runs import after the merge.
	var stream *lakeStream
	if spec.Lake != nil && shards == 1 {
		stream = &lakeStream{lk: spec.Lake, base: spec.Lake.NextTorrentID()}
	}

	runs := make([]ShardRun, shards)
	parts := make([]*dataset.Dataset, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eco, cr, ds, err := runShard(ctx, spec, world, db, params.Seed, consumption, i, shards, end, name, stream)
			runs[i] = ShardRun{Index: i, Eco: eco, Crawler: cr}
			parts[i], errs[i] = ds, err
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	ds := dataset.Merge(name, parts...)
	ds.Start = world.Start
	ds.End = end
	if spec.Lake != nil {
		if err := persistToLake(spec.Lake, stream, parts[0], ds); err != nil {
			return nil, err
		}
	}
	return &Result{
		Spec:    spec,
		Dataset: ds,
		World:   world,
		Shards:  runs,
		Eco:     runs[0].Eco,
		Crawler: runs[0].Crawler,
		DB:      db,
		Elapsed: wall.Now().Sub(start),
	}, nil
}

// lakeStream adapts a lake writer to the crawler's observation sink: the
// crawler's local torrent IDs are offset past the lake's existing
// contents, and the first append error is kept for the end of the run
// (the sink signature has no error path). Only a serial run streams, so
// the sink runs on the one shard's crawl goroutine. Most appends are two
// interned column pushes; every FlushRows-th append seals a segment
// (encode + fsync + manifest commit) inside the crawler's clock callback
// — a bounded, amortised stall accepted in exchange for the observations
// being durable and servable mid-crawl.
type lakeStream struct {
	lk   *lake.Lake
	base int
	err  error
}

func (ls *lakeStream) sink(tid int, addr netip.Addr, at time.Time, seeder bool) {
	if err := ls.lk.AppendAddr(ls.base+tid, addr, at, seeder); err != nil && ls.err == nil {
		ls.err = err
	}
}

// persistToLake commits the finished campaign. With a live stream the
// observations are already in the lake: only the final torrent/user
// records (IDs offset like the streamed observations) and the campaign
// window remain. Without one (sharded run) the merged dataset is
// imported wholesale.
func persistToLake(lk *lake.Lake, stream *lakeStream, raw, merged *dataset.Dataset) error {
	if stream == nil {
		return lk.ImportDataset(merged)
	}
	if stream.err != nil {
		return fmt.Errorf("campaign: lake stream: %w", stream.err)
	}
	recs := make([]*dataset.TorrentRecord, len(raw.Torrents))
	for i, t := range raw.Torrents {
		cp := *t
		cp.TorrentID += stream.base
		recs[i] = &cp
	}
	if err := lk.AddTorrents(recs); err != nil {
		return err
	}
	if err := lk.AddUsers(raw.Users); err != nil {
		return err
	}
	lk.ExtendWindow(merged.Name, merged.Start, merged.End)
	return lk.Flush()
}

// runShard stands up one shard's ecosystem, replays the campaign window on
// the shard's private sim clock, and returns the shard dataset.
func runShard(ctx context.Context, spec Spec, world *population.World, db *geoip.DB, seed uint64, consumption map[int][]ecosystem.ConsumptionEvent, index, count int, end time.Time, name string, stream *lakeStream) (*ecosystem.Ecosystem, *crawler.Crawler, *dataset.Dataset, error) {
	clock := simclock.NewSim(world.Start)
	// The .torrent files name the tracker the crawler announces to, so the
	// loopback listeners must exist before the ecosystem does.
	var lb *loopback
	trackerURL := ""
	if spec.Sockets {
		var err error
		if lb, err = listenLoopback(); err != nil {
			return nil, nil, nil, err
		}
		defer lb.close()
		trackerURL = lb.base + "/announce"
	}
	eco, err := ecosystem.New(ecosystem.Config{
		World:       world,
		DB:          db,
		Clock:       clock,
		TrackerURL:  trackerURL,
		Seed:        seed,
		ShardIndex:  index,
		ShardCount:  count,
		Consumption: consumption,
	})
	if err != nil {
		return nil, nil, nil, err
	}

	trk, err := tracker.New(eco, clock.Now)
	if err != nil {
		return nil, nil, nil, err
	}

	cfg := crawler.Config{
		DatasetName:     name,
		RecordUsernames: spec.Style != MN08,
		SingleShot:      spec.Style == PB09,
		End:             end,
	}
	if stream != nil {
		cfg.Sink = stream.sink
	}
	portalURL := crawler.SimPortalURL
	var (
		pc     crawler.PortalClient  = &crawler.InProcessPortal{P: eco.Portal}
		tc     crawler.TrackerClient = &crawler.InProcessTracker{T: trk, Vantages: crawler.DefaultVantages(3)}
		prober ecosystem.Prober      = &ecosystem.InProcessProber{E: eco}
	)
	if lb != nil {
		lb.serve(eco, trk)
		portalURL = lb.base
		pc = &crawler.HTTPPortal{BaseURL: lb.base}
		tc = &crawler.HTTPTracker{Vantages: crawler.DefaultVantages(3)}
		prober = &ecosystem.GatewayProber{Addr: lb.gw.Addr().String()}
	}
	if spec.Style == PB09 {
		prober = nil
	}
	cr, err := crawler.New(cfg, clock, pc, tc, prober)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := cr.Start(ctx); err != nil {
		return nil, nil, nil, err
	}

	// Replay the whole campaign; crawler and ecosystem share the clock.
	clock.AdvanceTo(end.Add(time.Hour))
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}

	// Post-campaign enrichment: page re-checks and user pages.
	if err := cr.FinalSweep(ctx, func(rec *dataset.TorrentRecord) string {
		return portalURL + "/page/" + rec.InfoHash
	}); err != nil {
		return nil, nil, nil, err
	}
	return eco, cr, cr.Dataset(), nil
}

// loopback is one shard's socket endpoints: an HTTP server carrying the
// portal and the tracker, and the ecosystem's peer gateway.
type loopback struct {
	web, gw net.Listener
	base    string // http://<web address>
	srv     http.Server
	done    sync.WaitGroup
}

func listenLoopback() (*loopback, error) {
	web, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("campaign: listen: %w", err)
	}
	gw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		web.Close()
		return nil, fmt.Errorf("campaign: listen: %w", err)
	}
	return &loopback{web: web, gw: gw, base: "http://" + web.Addr().String()}, nil
}

// serve starts answering on both listeners; close stops them.
func (lb *loopback) serve(eco *ecosystem.Ecosystem, trk *tracker.Tracker) {
	ph, th := &portal.Handler{P: eco.Portal}, &tracker.Handler{T: trk}
	lb.srv.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/announce" {
			th.ServeHTTP(w, r)
			return
		}
		ph.ServeHTTP(w, r)
	})
	lb.done.Add(2)
	go func() {
		defer lb.done.Done()
		_ = lb.srv.Serve(lb.web) // returns once close shuts the server
	}()
	go func() {
		defer lb.done.Done()
		_ = eco.ServeGateway(lb.gw) // returns once close shuts the listener
	}()
}

// close shuts both endpoints and waits for their accept loops to return.
func (lb *loopback) close() {
	_ = lb.srv.Close() // also closes lb.web
	_ = lb.web.Close() // for a server that never started serving
	_ = lb.gw.Close()
	lb.done.Wait()
}

// Stats aggregates crawler counters across every shard.
func (r *Result) Stats() crawler.Counters {
	var out crawler.Counters
	for _, s := range r.Shards {
		if s.Crawler != nil {
			out = out.Add(s.Crawler.Stats())
		}
	}
	return out
}

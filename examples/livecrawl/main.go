// Livecrawl: the whole measurement over real sockets, sharded. Each world
// shard gets its own HTTP portal+tracker, TCP wire gateway and crawler —
// the crawler fetches the RSS feed, downloads .torrent files, announces,
// and performs wire-protocol handshakes across localhost — while virtual
// time runs at high speed. Each crawler runs on its shard's sim clock
// (SimDriver, advanced by the ecosystem's Pump), which fires one callback
// at a time, so a shard has at most one announce in flight. The per-shard
// datasets merge into one canonical dataset at the end, exactly like the
// in-process campaign engine.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"btpub/internal/crawler"
	"btpub/internal/dataset"
	"btpub/internal/ecosystem"
	"btpub/internal/geoip"
	"btpub/internal/population"
	"btpub/internal/portal"
	"btpub/internal/simclock"
	"btpub/internal/tracker"
)

// shard is one live slice of the world: portal+tracker over HTTP, wire
// gateway over TCP, and the crawler measuring it.
type shard struct {
	base    string
	crawler *crawler.Crawler
	clock   *simclock.Sim
	stop    func()
}

func startShard(world *population.World, db *geoip.DB, consumption map[int][]ecosystem.ConsumptionEvent, index, count int) (*shard, error) {
	clock := simclock.NewSim(world.Start)

	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	gwLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	base := "http://" + httpLn.Addr().String()

	eco, err := ecosystem.New(ecosystem.Config{
		World: world, DB: db, Clock: clock,
		TrackerURL: base + "/announce", Seed: 42,
		ShardIndex: index, ShardCount: count,
		Consumption: consumption,
	})
	if err != nil {
		return nil, err
	}
	trk, err := tracker.New(eco, clock.Now)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	ph := &portal.Handler{P: eco.Portal, BaseURL: base}
	th := &tracker.Handler{T: trk}
	mux.Handle("/rss", ph)
	mux.Handle("/torrent/", ph)
	mux.Handle("/page/", ph)
	mux.Handle("/user/", ph)
	mux.Handle("/announce", th)
	go func() { _ = http.Serve(httpLn, mux) }()
	go func() { _ = eco.ServeGateway(gwLn) }()

	// Virtual time: ~6 simulated hours per wall second. The crawler runs
	// in *virtual* time too (SimDriver), so its 10-minute RSS polls happen
	// at simulation pace while all I/O crosses real sockets.
	stop := eco.Pump(6*3600, 50*time.Millisecond)

	cr, err := crawler.New(
		crawler.Config{DatasetName: "livecrawl", RecordUsernames: true,
			End: world.Start.Add(36 * 24 * time.Hour)},
		&crawler.SimDriver{Sim: clock},
		&crawler.HTTPPortal{BaseURL: base},
		&crawler.HTTPTracker{Vantages: crawler.DefaultVantages(3)},
		&ecosystem.GatewayProber{Addr: gwLn.Addr().String()},
	)
	if err != nil {
		stop()
		return nil, err
	}
	if err := cr.Start(); err != nil {
		stop()
		return nil, err
	}
	return &shard{base: base, crawler: cr, clock: clock, stop: stop}, nil
}

func main() {
	shardCount := flag.Int("shards", runtime.NumCPU(), "parallel world shards, each on its own sockets")
	flag.Parse()
	if *shardCount < 1 {
		*shardCount = 1
	}

	db, err := geoip.DefaultDB()
	if err != nil {
		log.Fatal(err)
	}
	params := population.DefaultParams(0.005)
	params.MeanDownloads = 150
	world, err := population.Generate(params, db)
	if err != nil {
		log.Fatal(err)
	}

	consumption := ecosystem.PlanConsumption(world, 42)
	shards := make([]*shard, *shardCount)
	for i := range shards {
		if shards[i], err = startShard(world, db, consumption, i, *shardCount); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("ecosystem live across %d shards (shard 0 at %s); crawling %d-torrent world over real sockets...\n",
		len(shards), shards[0].base, len(world.Torrents))

	deadline := time.Now().Add(12 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(2 * time.Second)
		var st crawler.Counters
		for _, s := range shards {
			st = st.Add(s.crawler.Stats())
		}
		fmt.Printf("  virtual %s | torrents %d | queries %d | probes %d | publisher IPs %d\n",
			shards[0].clock.Now().Format("Jan 02 15:04"), st.TorrentsSeen,
			st.TrackerQueries, st.WireProbes, st.PublishersByIP)
	}

	// Stop the pumps, sweep every shard, merge the shard datasets.
	parts := make([]*dataset.Dataset, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		wg.Add(1)
		go func(i int, s *shard) {
			defer wg.Done()
			defer s.crawler.Close()
			s.stop()
			if err := s.crawler.FinalSweep(context.Background(), func(rec *dataset.TorrentRecord) string {
				return s.base + "/page/" + rec.InfoHash
			}); err != nil {
				log.Printf("shard %d final sweep: %v", i, err)
			}
			parts[i] = s.crawler.Dataset()
		}(i, s)
	}
	wg.Wait()
	ds := dataset.Merge("livecrawl", parts...)
	fmt.Printf("\nlive crawl captured %d torrents, %d observations, %d distinct IPs, %d user pages\n",
		len(ds.Torrents), ds.NumObservations(), ds.DistinctIPs(), len(ds.Users))
}

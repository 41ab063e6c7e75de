// btpub-ecosystem serves the synthetic BitTorrent world over real sockets:
// the portal (RSS, pages, .torrent files) and tracker over HTTP, and the
// peer gateway over TCP, with virtual time advancing at a configurable
// speedup, for any outside client to browse, announce to or probe. No
// program in the tree connects to it: btpub-crawl crawls in process, and
// examples/livecrawl starts its own per-shard servers.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"

	"btpub/internal/ecosystem"
	"btpub/internal/geoip"
	"btpub/internal/population"
	"btpub/internal/portal"
	"btpub/internal/simclock"
	"btpub/internal/tracker"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("btpub-ecosystem: ")
	scale := flag.Float64("scale", 0.01, "world scale (1.0 = full pb10)")
	seed := flag.Uint64("seed", 1, "scenario seed")
	md := flag.Float64("mean-downloads", 250, "mean downloader arrivals per torrent")
	httpAddr := flag.String("http", "127.0.0.1:8810", "portal+tracker HTTP address")
	gwAddr := flag.String("gateway", "127.0.0.1:8811", "peer gateway TCP address")
	speedup := flag.Float64("speedup", 1440, "virtual seconds per wall second (1440 = a day per minute)")
	flag.Parse()

	db, err := geoip.DefaultDB()
	if err != nil {
		log.Fatal(err)
	}
	params := population.DefaultParams(*scale)
	params.Seed = *seed
	params.MeanDownloads = *md
	world, err := population.Generate(params, db)
	if err != nil {
		log.Fatal(err)
	}
	clock := simclock.NewSim(world.Start)
	eco, err := ecosystem.New(ecosystem.Config{
		World: world, DB: db, Clock: clock,
		TrackerURL: "http://" + *httpAddr + "/announce",
		Seed:       *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	trk, err := tracker.New(eco, clock.Now)
	if err != nil {
		log.Fatal(err)
	}

	mux := http.NewServeMux()
	ph := &portal.Handler{P: eco.Portal, BaseURL: "http://" + *httpAddr}
	th := &tracker.Handler{T: trk}
	mux.Handle("/rss", ph)
	mux.Handle("/torrent/", ph)
	mux.Handle("/page/", ph)
	mux.Handle("/user/", ph)
	mux.Handle("/announce", th)

	gw, err := net.Listen("tcp", *gwAddr)
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := eco.ServeGateway(gw); err != nil {
			log.Printf("gateway: %v", err)
		}
	}()

	stop := eco.Pump(*speedup, 0)
	defer stop()

	fmt.Printf("world: %d torrents, %d publishers (scale %.3f)\n",
		len(world.Torrents), len(world.Publishers), *scale)
	fmt.Printf("portal+tracker: http://%s  (RSS at /rss, announce at /announce)\n", *httpAddr)
	fmt.Printf("peer gateway:   tcp://%s   (preamble: \"PEER <ip>\\n\")\n", *gwAddr)
	fmt.Printf("virtual time:   %.0fx real time, campaign start %s\n", *speedup, world.Start)
	log.Fatal(http.ListenAndServe(*httpAddr, mux))
}

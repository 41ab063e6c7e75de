// btpub-serve is the lake query server: it serves the paper's tables and
// raw observation queries over HTTP from a persistent observation lake,
// while writers keep appending to it. Analysis snapshots are cached per
// committed lake version, so many concurrent readers cost one index
// build per version, not one per request.
//
// Typical uses:
//
//	# serve an existing lake
//	btpub-serve -lake pb10.lake
//
//	# migrate a JSONL dataset into a lake, then serve it
//	btpub-serve -lake pb10.lake -import pb10.jsonl
//
//	# demo: ingest a live simulated campaign while serving it
//	btpub-serve -lake live.lake -live -scale 0.02
//
// Endpoints (see internal/lakeserve; every route lives under /api/v1):
//
//	curl localhost:8813/api/v1/stats
//	curl localhost:8813/api/v1/tables/1
//	curl 'localhost:8813/api/v1/tables/2?n=10&format=json'
//	curl 'localhost:8813/api/v1/tables/3?isps=OVH,Comcast'
//	curl 'localhost:8813/api/v1/top-publishers?n=20'
//	curl 'localhost:8813/api/v1/publishers/classified?n=20'
//	curl localhost:8813/api/v1/publishers/NAME
//	curl 'localhost:8813/api/v1/fakes?n=50'
//	curl 'localhost:8813/api/v1/torrents/recent?n=50'
//	curl 'localhost:8813/api/v1/torrents/17/observations?limit=100'
//	curl 'localhost:8813/api/v1/alerts?since=0&wait=25s'
//	curl -d '{"group_by":{"key":"isp"},"aggs":["distinct-ips"]}' localhost:8813/api/v1/query
//
// Snapshot refreshes are incremental (internal/delta) and feed the
// fake/scam alert engine; -live logs every changed alert and polls the
// refresh on a timer so detection keeps pace with ingest even without
// request traffic. -alert-webhook POSTs changed alerts to an external
// receiver in any mode.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"btpub/internal/alert"
	"btpub/internal/campaign"
	"btpub/internal/dataset"
	"btpub/internal/geoip"
	"btpub/internal/lake"
	"btpub/internal/lakeserve"
	"btpub/internal/population"
	"btpub/internal/webmon"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("btpub-serve: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run keeps every exit path behind the deferred lake Close (log.Fatal
// would skip it). SIGINT/SIGTERM drain the HTTP server first —
// in-flight lake scans finish cleanly — and then the deferred Close
// flushes pending state and deletes compaction-retired files.
func run() error {
	dir := flag.String("lake", "pb10.lake", "lake directory")
	addr := flag.String("http", "127.0.0.1:8813", "listen address")
	imp := flag.String("import", "", "JSONL dataset to import into the lake before serving")
	live := flag.Bool("live", false, "run a simulated campaign that streams into the lake while serving")
	scale := flag.Float64("scale", 0.02, "world scale for -live")
	seed := flag.Uint64("seed", 1, "scenario seed for -live")
	scenarios := flag.String("scenarios", "", "adversarial publisher profiles for -live (alias,churn,blitz,purge; or all)")
	topK := flag.Int("topk", 0, "top-K publisher cut (0 = the paper's 3% rule)")
	salvage := flag.Bool("salvage", false, "drop corrupt segments at open instead of failing")
	maxConc := flag.Int("max-concurrent", 0, "max in-flight API requests before shedding 429s (0 = default, negative = unlimited)")
	reqTimeout := flag.Duration("request-timeout", 0, "per-request wall-clock budget (0 = default, negative = none)")
	webhook := flag.String("alert-webhook", "", "POST changed fake/scam alerts to this URL (one JSON array per refresh)")
	flag.Parse()

	lk, err := lake.Open(*dir, lake.Options{Salvage: *salvage, Compact: lake.CompactOptions{Auto: true}})
	if err != nil {
		return err
	}
	defer lk.Close()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	if *imp != "" {
		ds, err := dataset.Load(*imp)
		if err != nil {
			return err
		}
		if err := lk.ImportDataset(ds); err != nil {
			return err
		}
		log.Printf("imported %s: %d torrents, %d observations (%d dropped upstream)",
			*imp, len(ds.Torrents), ds.NumObservations(), ds.DroppedObservations)
	}

	db, err := geoip.DefaultDB()
	if err != nil {
		return err
	}
	srv := &lakeserve.Server{
		Lake: lk, Geo: db, TopK: *topK,
		MaxConcurrent:  *maxConc,
		RequestTimeout: *reqTimeout,
	}
	defer srv.Close()

	var notifiers alert.MultiNotifier
	if *live {
		notifiers = append(notifiers, &alert.LogNotifier{Log: log.Default()})
	}
	if *webhook != "" {
		notifiers = append(notifiers, &alert.WebhookNotifier{URL: *webhook})
	}
	if len(notifiers) > 0 {
		srv.AlertNotifier = notifiers
	}

	if *live {
		adv, err := population.ParseScenarios(*scenarios)
		if err != nil {
			return err
		}
		go func() {
			log.Printf("live campaign: scale=%.3f seed=%d scenarios=%v streaming into %s",
				*scale, *seed, adv, *dir)
			res, err := campaign.Run(campaign.Spec{
				Scale: *scale, Seed: *seed, MeanDownloads: 250, Lake: lk, Scenarios: adv,
			})
			if err != nil {
				log.Printf("live campaign failed: %v", err)
				return
			}
			log.Printf("live campaign done: %d torrents, %d observations committed",
				len(res.Dataset.Torrents), res.Dataset.NumObservations())
			// With the world in hand, /publishers/classified can resolve
			// promoted sites to their businesses instead of treating every
			// promoter's site as vanished.
			mon, err := webmon.NewDirectory(res.World, *seed)
			if err != nil {
				log.Printf("webmon directory failed (promoted sites will serve as vanished): %v", err)
				return
			}
			srv.SetInspector(mon)
		}()
		// Refreshes are normally request-driven; while a campaign streams
		// in, poll so alerts fire within seconds of their evidence landing
		// even when nobody is querying.
		go func() {
			tick := time.NewTicker(2 * time.Second)
			defer tick.Stop()
			for range tick.C {
				srv.Refresh()
			}
		}()
	}
	st := lk.Stats()
	log.Printf("serving lake %s (v%d, %d segments, %d observations, %d torrents, %d bytes on disk) on http://%s",
		*dir, st.Version, st.Segments, st.Observations, st.Torrents, st.TotalBytes, *addr)

	// Serve behind an http.Server so a signal drains in-flight requests
	// (long lake scans included) via Shutdown instead of killing them
	// mid-response. A -live campaign still streaming at that point is
	// not awaited: once the deferred Close marks the lake closed, its
	// remaining appends are refused with a clean "lake: closed" error
	// (logged by the campaign goroutine) — committed state stays
	// consistent either way.
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case s := <-sigc:
		log.Printf("%v: draining connections, then closing lake", s)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
		return nil
	}
}

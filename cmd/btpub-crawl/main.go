// btpub-crawl runs the paper's measurement campaign against the simulated
// ecosystem and writes the resulting dataset as JSON Lines, one of
// mn08/pb09/pb10 style. With -lake the campaign also persists into an
// observation lake: serial runs (-shards 1) stream observations into it
// live while crawling, sharded runs import the merged dataset afterwards,
// and successive crawls into the same lake accumulate with offset
// torrent IDs (the incremental-archive workflow of the follow-up
// studies). With -sockets every shard is crawled over loopback sockets —
// HTTP portal and tracker, TCP wire gateway — and writes the same bytes.
package main

import (
	"flag"
	"log"
	"runtime"

	"btpub/internal/campaign"
	"btpub/internal/lake"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("btpub-crawl: ")
	scale := flag.Float64("scale", 0.02, "world scale (1.0 = full pb10)")
	seed := flag.Uint64("seed", 1, "scenario seed")
	md := flag.Float64("mean-downloads", 250, "mean downloader arrivals per torrent")
	style := flag.String("style", "pb10", "dataset style: pb10, pb09 or mn08")
	shards := flag.Int("shards", runtime.NumCPU(), "parallel world shards")
	out := flag.String("out", "", "output dataset path (default <style>.jsonl; \"-\" skips the JSONL)")
	lakeDir := flag.String("lake", "", "also persist the campaign into this lake directory")
	sockets := flag.Bool("sockets", false, "crawl each shard over loopback HTTP and TCP sockets")
	flag.Parse()

	st, err := campaign.ParseStyle(*style)
	if err != nil {
		log.Fatal(err)
	}
	path := *out
	if path == "" {
		path = *style + ".jsonl"
	}
	spec := campaign.Spec{
		Scale: *scale, Seed: *seed, MeanDownloads: *md, Style: st,
		Shards: *shards, Sockets: *sockets,
	}
	if *lakeDir != "" {
		lk, err := lake.Open(*lakeDir, lake.Options{Compact: lake.CompactOptions{Auto: true}})
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := lk.Close(); err != nil {
				log.Fatal(err)
			}
			ls := lk.Stats()
			log.Printf("lake %s: v%d, %d segments, %d observations, %d torrents total",
				*lakeDir, ls.Version, ls.Segments, ls.Observations, ls.Torrents)
		}()
		spec.Lake = lk
	}
	res, err := campaign.Run(spec)
	if err != nil {
		log.Fatal(err)
	}
	if path != "-" {
		if err := res.Dataset.Save(path); err != nil {
			log.Fatal(err)
		}
	}
	stats := res.Stats()
	log.Printf("%s: %d torrents (%d with IP), %d observations, %d distinct IPs, %d queries -> %s",
		*style, stats.TorrentsSeen, res.Dataset.TorrentsWithIP(),
		res.Dataset.NumObservations(), res.Dataset.DistinctIPs(), stats.TrackerQueries, path)
}

// btpub-experiments regenerates every table and figure of the paper from
// an end-to-end simulated campaign and writes the paper-vs-measured
// comparison to EXPERIMENTS.md (and stdout). With -sweep it fans a grid of
// scenarios (style × seed) out over the sharded campaign engine under one
// shared worker budget, the way the follow-up studies re-ran the
// measurement across portals and months.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"

	"btpub/internal/campaign"
	"btpub/internal/population"
	"btpub/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("btpub-experiments: ")
	scale := flag.Float64("scale", 0.05, "world scale (1.0 = full pb10)")
	seed := flag.Uint64("seed", 1, "scenario seed")
	md := flag.Float64("mean-downloads", 350, "mean downloader arrivals per torrent")
	shards := flag.Int("shards", runtime.NumCPU(), "parallel world shards per campaign")
	workers := flag.Int("workers", 2, "concurrent announces per crawler vantage")
	sweep := flag.String("sweep", "", "comma-separated styles to sweep (e.g. pb10,pb09,mn08); empty = single pb10 run")
	seeds := flag.String("seeds", "", "comma-separated seeds for the sweep grid (default: -seed)")
	budget := flag.Int("budget", runtime.NumCPU(), "shared worker budget across all sweep campaigns")
	scenarios := flag.String("scenarios", "", "adversarial publisher profiles (comma-separated: alias,churn,blitz,purge; or all)")
	out := flag.String("out", "EXPERIMENTS.md", "output file (empty = stdout only)")
	flag.Parse()

	adv, err := population.ParseScenarios(*scenarios)
	if err != nil {
		log.Fatal(err)
	}

	if *sweep != "" {
		runSweep(*sweep, *seeds, *scale, *seed, *md, *shards, *workers, *budget, adv, *out)
		return
	}

	log.Printf("running pb10-style campaign: scale=%.3f seed=%d meanDownloads=%.0f shards=%d workers=%d scenarios=%v",
		*scale, *seed, *md, *shards, *workers, adv)
	res, err := campaign.Run(campaign.Spec{
		Scale: *scale, Seed: *seed, MeanDownloads: *md,
		Shards: *shards, Workers: *workers, Scenarios: adv,
	})
	if err != nil {
		log.Fatal(err)
	}
	logRun(res)
	writeReport(res, *out)
}

func logRun(res *campaign.Result) {
	st := res.Stats()
	log.Printf("%s done in %v: %d torrents, %d tracker queries, %d observations (%d dropped at merge), %d distinct IPs",
		res.Dataset.Name, res.Elapsed, st.TorrentsSeen, st.TrackerQueries,
		res.Dataset.NumObservations(), res.Dataset.DroppedObservations, res.Dataset.DistinctIPs())
}

func writeReport(res *campaign.Result, out string) {
	rep, err := report.Run(res)
	if err != nil {
		log.Fatal(err)
	}
	body := rep.Render()
	fmt.Println(body)
	if out != "" {
		if err := os.WriteFile(out, []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", out)
	}
}

// runSweep executes the style × seed grid concurrently and reports the
// full experiment suite for the first pb10 run of the grid.
func runSweep(sweep, seedList string, scale float64, seed uint64, md float64, shards, workers, budget int, adv population.Scenario, out string) {
	seedVals := []uint64{seed}
	if seedList != "" {
		seedVals = nil
		for _, f := range strings.Split(seedList, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
			if err != nil {
				log.Fatalf("bad seed %q: %v", f, err)
			}
			seedVals = append(seedVals, v)
		}
	}
	var specs []campaign.Spec
	for _, f := range strings.Split(sweep, ",") {
		style, err := campaign.ParseStyle(strings.TrimSpace(f))
		if err != nil {
			log.Fatal(err)
		}
		for _, sv := range seedVals {
			name := fmt.Sprintf("%s-seed%d", style, sv)
			if adv != 0 {
				name += "-" + adv.String()
			}
			specs = append(specs, campaign.Spec{
				Scale: scale, Seed: sv, MeanDownloads: md, Style: style,
				Shards: shards, Workers: workers, Scenarios: adv,
				DatasetName: name,
			})
		}
	}
	log.Printf("sweeping %d campaigns (scale=%.3f, %d shards each, budget %d)",
		len(specs), scale, shards, budget)
	results := campaign.RunMany(specs, budget)

	var primary *campaign.Result
	fmt.Printf("| dataset | torrents | with IP | observations | dropped | distinct IPs | queries | wall time |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|\n")
	for _, sr := range results {
		if sr.Err != nil {
			log.Fatalf("%s seed %d: %v", sr.Spec.Style, sr.Spec.Seed, sr.Err)
		}
		res := sr.Result
		st := res.Stats()
		fmt.Printf("| %s | %d | %d | %d | %d | %d | %d | %v |\n",
			res.Dataset.Name, len(res.Dataset.Torrents), res.Dataset.TorrentsWithIP(),
			res.Dataset.NumObservations(), res.Dataset.DroppedObservations,
			res.Dataset.DistinctIPs(), st.TrackerQueries, res.Elapsed)
		if primary == nil && sr.Spec.Style == campaign.PB10 {
			primary = res
		}
	}
	if primary == nil {
		primary = results[0].Result
	}
	writeReport(primary, out)
}

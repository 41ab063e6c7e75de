// btpub-experiments regenerates every table and figure of the paper from
// an end-to-end simulated campaign and writes the paper-vs-measured
// comparison to EXPERIMENTS.md (and stdout). With -sweep it runs a grid of
// scenarios (style × seed) one campaign after another, each sharded across
// all cores, the way the follow-up studies re-ran the measurement across
// portals and months.
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
	sweep := flag.String("sweep", "", "comma-separated styles to sweep (e.g. pb10,pb09,mn08); empty = single pb10 run")
	seeds := flag.String("seeds", "", "comma-separated seeds for the sweep grid (default: -seed)")
	scenarios := flag.String("scenarios", "", "adversarial publisher profiles (comma-separated: alias,churn,blitz,purge; or all)")
	out := flag.String("out", "EXPERIMENTS.md", "output file (empty = stdout only)")
	flag.Parse()

	adv, err := population.ParseScenarios(*scenarios)
	if err != nil {
		log.Fatal(err)
	}

	if *sweep != "" {
		runSweep(*sweep, *seeds, *scale, *seed, *md, *shards, adv, *out)
		return
	}

	log.Printf("running pb10-style campaign: scale=%.3f seed=%d meanDownloads=%.0f shards=%d scenarios=%v",
		*scale, *seed, *md, *shards, adv)
	res, err := campaign.Run(campaign.Spec{
		Scale: *scale, Seed: *seed, MeanDownloads: *md,
		Shards: *shards, Scenarios: adv,
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

// runSweep executes the style × seed grid one campaign at a time and
// reports the full experiment suite for the first pb10 run of the grid.
func runSweep(sweep, seedList string, scale float64, seed uint64, md float64, shards int, adv population.Scenario, out string) {
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
				Shards: shards, Scenarios: adv, DatasetName: name,
			})
		}
	}
	log.Printf("sweeping %d campaigns (scale=%.3f, %d shards each)", len(specs), scale, shards)

	var first, primary *campaign.Result
	fmt.Printf("| dataset | torrents | with IP | observations | dropped | distinct IPs | queries | wall time |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|\n")
	for _, spec := range specs {
		res, err := campaign.Run(spec)
		if err != nil {
			log.Fatalf("%s seed %d: %v", spec.Style, spec.Seed, err)
		}
		st := res.Stats()
		fmt.Printf("| %s | %d | %d | %d | %d | %d | %d | %v |\n",
			res.Dataset.Name, len(res.Dataset.Torrents), res.Dataset.TorrentsWithIP(),
			res.Dataset.NumObservations(), res.Dataset.DroppedObservations,
			res.Dataset.DistinctIPs(), st.TrackerQueries, res.Elapsed)
		if first == nil {
			first = res
		}
		if primary == nil && spec.Style == campaign.PB10 {
			primary = res
		}
	}
	if primary == nil {
		primary = first
	}
	writeReport(primary, out)
}

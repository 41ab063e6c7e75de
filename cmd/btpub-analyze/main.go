// btpub-analyze loads a crawled dataset (JSONL from btpub-crawl, or a
// persistent observation lake) and prints every table and figure the
// paper's analysis derives from it. Business classification uses a
// URL-pattern inspector, since a saved dataset has no live sites left to
// visit.
//
// Lake workflows:
//
//	btpub-analyze -lake pb10.lake              analyze a lake directly
//	btpub-analyze -in pb10.jsonl -import pb10.lake
//	                                           migrate JSONL into a lake,
//	                                           then analyze from the lake
//	btpub-analyze -remote http://127.0.0.1:8813
//	                                           render the tables from a
//	                                           running btpub-serve
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"btpub/internal/analysis"
	"btpub/internal/apiclient"
	"btpub/internal/dataset"
	"btpub/internal/geoip"
	"btpub/internal/lake"
	"btpub/internal/population"
)

// patternInspector classifies promoted sites from their URL shape when the
// live site is gone (offline re-analysis of an old dataset).
type patternInspector struct{}

func (patternInspector) Inspect(url string) (population.BusinessType, string, error) {
	switch {
	case strings.Contains(url, "pix"):
		return population.BusinessImageHosting, "", nil
	case strings.HasPrefix(url, "forum."):
		return population.BusinessForum, "", nil
	case strings.Contains(url, "lightway"):
		return population.BusinessReligious, "", nil
	default:
		return population.BusinessPrivatePortal, "", nil
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("btpub-analyze: ")
	in := flag.String("in", "pb10.jsonl", "dataset path (JSONL)")
	lakeDir := flag.String("lake", "", "analyze this lake directory instead of -in")
	imp := flag.String("import", "", "import -in into this lake directory, then analyze from the lake")
	remote := flag.String("remote", "", "render the tables from a running btpub-serve at this base URL")
	topK := flag.Int("topk", 0, "top-K publisher cut (0 = the paper's 3% rule; local modes only)")
	gap := flag.Duration("gap", 0, "session gap threshold (0 = the paper's ~4h)")
	n := flag.Int("n", 10, "Table 2 row count (with -remote)")
	timeout := flag.Duration("timeout", 0, "per-request HTTP timeout for -remote (0 = client default, negative = none)")
	flag.Parse()
	ctx := context.Background()

	if *remote != "" {
		if *lakeDir != "" || *imp != "" {
			log.Fatal("-remote is mutually exclusive with -lake and -import")
		}
		if err := runRemote(ctx, *remote, *n, *timeout); err != nil {
			log.Fatal(err)
		}
		return
	}

	db, err := geoip.DefaultDB()
	if err != nil {
		log.Fatal(err)
	}
	ds, err := loadDataset(ctx, *in, *lakeDir, *imp)
	if err != nil {
		log.Fatal(err)
	}
	a, err := analysis.New(ds, db, *topK)
	if err != nil {
		log.Fatal(err)
	}
	name := ds.Name

	fmt.Println(analysis.RenderSummary([]analysis.DatasetSummary{a.Summary()}))
	// Surface ingest losses next to the Table 1 numbers: non-zero means
	// observations arrived without a matching torrent record somewhere
	// between crawl, merge and lake.
	fmt.Printf("dropped observations (no matching torrent record): %d\n\n", ds.DroppedObservations)
	fmt.Println(analysis.RenderSkewness(name, a.Skewness()))
	fmt.Println(analysis.RenderISPTable(name, a.ISPTable(10)))
	fmt.Println(analysis.RenderContrast(name, a.ContrastISPs(geoip.OVH, geoip.Comcast)))
	fmt.Println(analysis.RenderCross(name, a.Facts.Cross(0)))
	fmt.Println(analysis.RenderContentTypes(name, a.ContentTypes()))
	fmt.Println(analysis.RenderPopularity(name, a.Popularity()))
	fmt.Println(analysis.RenderSeeding(name, a.Seeding(*gap)))

	profiles, sums, err := a.Business(patternInspector{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(analysis.RenderBusiness(name, sums))
	if long, err := a.LongitudinalView(profiles); err == nil {
		fmt.Println(analysis.RenderLongitudinal(name, long))
	}
	fmt.Println(analysis.RenderHostingIncome(name, a.HostingIncomeFor(geoip.OVH)))
}

// runRemote renders the server-side tables: the exact text a local
// analysis would print, but produced by the running btpub-serve from its
// cached snapshot — no dataset ever leaves the server.
func runRemote(ctx context.Context, base string, n int, timeout time.Duration) error {
	c := apiclient.New(base)
	c.Timeout = timeout
	st, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("remote lake %s: v%d, %d segments, %d observations, %d torrents (analysis v%d)\n\n",
		st.Lake.Name, st.Lake.Version, st.Lake.Segments, st.Lake.Observations,
		st.Lake.Torrents, st.AnalysisVersion)
	for _, table := range []struct {
		id    int
		extra url.Values
	}{
		{1, nil},
		{2, url.Values{"n": {strconv.Itoa(n)}}},
		{3, nil},
	} {
		txt, err := c.TableText(ctx, table.id, table.extra)
		if err != nil {
			return err
		}
		fmt.Println(txt)
	}
	return nil
}

// loadDataset resolves the three input modes: plain JSONL, lake, or the
// JSONL→lake migration path (-import), which round-trips through the
// lake so the printed tables prove the migrated archive is intact.
func loadDataset(ctx context.Context, in, lakeDir, imp string) (*dataset.Dataset, error) {
	switch {
	case lakeDir != "" && imp != "":
		return nil, fmt.Errorf("-lake and -import are mutually exclusive")
	case lakeDir != "":
		// Read-only mode: opening a missing directory would create an
		// empty lake and analyze zero observations without complaint.
		if fi, err := os.Stat(lakeDir); err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("-lake %q: no such lake directory", lakeDir)
		}
		lk, err := lake.Open(lakeDir, lake.Options{})
		if err != nil {
			return nil, err
		}
		defer lk.Close()
		ds, _, err := lk.Materialize(ctx, lake.Predicate{})
		return ds, err
	case imp != "":
		ds, err := dataset.Load(in)
		if err != nil {
			return nil, err
		}
		lk, err := lake.Open(imp, lake.Options{})
		if err != nil {
			return nil, err
		}
		defer lk.Close()
		if err := lk.ImportDataset(ds); err != nil {
			return nil, err
		}
		// Auto-compaction only ever follows a flush, so a server that just
		// reads this lake would scan every import chunk forever: fold them
		// here, as a settled lake would be.
		if err := lk.Compact(); err != nil {
			return nil, err
		}
		st := lk.Stats()
		log.Printf("imported %s into lake %s: v%d, %d segments, %d observations, %d torrents total",
			in, imp, st.Version, st.Segments, st.Observations, st.Torrents)
		ds, _, err = lk.Materialize(ctx, lake.Predicate{})
		return ds, err
	default:
		// Analysis takes canonical input (record i has TorrentID i); a
		// btpub-crawl file already is, and Merge leaves it unchanged.
		ds, err := dataset.Load(in)
		if err != nil {
			return nil, err
		}
		return dataset.Merge(ds.Name, ds), nil
	}
}

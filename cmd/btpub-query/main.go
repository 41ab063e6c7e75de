// btpub-query runs one composable query against an observation lake —
// either a local lake directory (the query executes in-process with
// zone-map pushdown) or a running btpub-serve instance (the same Query
// goes over POST /api/v1/query). Flags compile straight into a
// query.Query, so everything the API can express, the CLI can ask.
//
// Examples:
//
//	# top ISPs by distinct downloader IPs, from a local lake
//	btpub-query -lake pb10.lake -group isp -aggs distinct-ips,observations \
//	    -order distinct-ips -desc -limit 10
//
//	# per-publisher seeder sightings in a time window, from a server
//	btpub-query -remote http://127.0.0.1:8813 -group publisher \
//	    -aggs seeders,observations -min 2010-04-10T00:00:00Z -seeders
//
//	# raw observations of one torrent
//	btpub-query -lake pb10.lake -select observations -torrents 17 -limit 20
//
//	# page through a big result
//	btpub-query -lake pb10.lake -group torrent -aggs max-swarm -limit 1000 -cursor <tok>
//
//	# tail the fake/scam alert feed from a server
//	btpub-query -remote http://127.0.0.1:8813 -alerts -since 42 -wait 25s
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"btpub/internal/apiclient"
	"btpub/internal/geoip"
	"btpub/internal/lake"
	"btpub/internal/query"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("btpub-query: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	lakeDir := flag.String("lake", "", "query this local lake directory")
	remote := flag.String("remote", "", "query a running btpub-serve at this base URL instead of a local lake")
	sel := flag.String("select", "", "result shape: groups (default) or observations")
	minT := flag.String("min", "", "min observation time (RFC3339, inclusive)")
	maxT := flag.String("max", "", "max observation time (RFC3339, inclusive)")
	torrents := flag.String("torrents", "", "comma-separated torrent IDs")
	publishers := flag.String("publishers", "", "comma-separated publisher usernames")
	ips := flag.String("ips", "", "comma-separated peer addresses (point lookup: only segments whose address dictionary holds one are opened)")
	isps := flag.String("isps", "", "comma-separated peer ISPs")
	countries := flag.String("countries", "", "comma-separated peer countries")
	seeders := flag.Bool("seeders", false, "seeder sightings only")
	asOf := flag.Uint64("as-of", 0, "pin the query to this committed lake version (0 = head); replays reproducibly while ingest continues")
	group := flag.String("group", "", "group by: publisher|isp|country|torrent|content-type|time-bucket")
	bucket := flag.Duration("bucket", 0, "time-bucket width (with -group time-bucket), e.g. 6h")
	aggs := flag.String("aggs", "", "comma-separated aggregates: observations,distinct-ips,seeders,torrents,max-swarm")
	order := flag.String("order", "", "order rows by \"key\" or one of the requested aggregates")
	desc := flag.Bool("desc", false, "descending order")
	limit := flag.Int("limit", 0, "row limit (0 = all); a truncated result prints a next cursor")
	cursor := flag.String("cursor", "", "resume a paginated walk")
	alerts := flag.Bool("alerts", false, "fetch the fake/scam alert feed instead of running a query (needs -remote)")
	since := flag.Uint64("since", 0, "with -alerts: only alerts updated after this version cursor")
	wait := flag.Duration("wait", 0, "with -alerts: long-poll up to this long for alerts past the cursor")
	asJSON := flag.Bool("json", false, "print the raw JSON result instead of a table")
	explain := flag.Bool("explain", false, "print the query plan (predicate order, segment pruning, workers) instead of executing")
	timeout := flag.Duration("timeout", 0, "per-request HTTP timeout for -remote (0 = client default, negative = none)")
	flag.Parse()

	if (*lakeDir == "") == (*remote == "") {
		return fmt.Errorf("exactly one of -lake or -remote is required")
	}
	if *alerts {
		if *remote == "" {
			return fmt.Errorf("-alerts needs -remote: the alert feed lives on the server")
		}
		return fetchAlerts(context.Background(), os.Stdout, *remote, *since, *wait, *timeout, *asJSON)
	}
	// Queries are read-only: opening a missing directory would create an
	// empty lake and every query would "succeed" with zero rows.
	if *lakeDir != "" {
		if fi, err := os.Stat(*lakeDir); err != nil || !fi.IsDir() {
			return fmt.Errorf("-lake %q: no such lake directory", *lakeDir)
		}
	}

	q := query.Query{
		Select: *sel,
		Filter: query.Filter{
			TorrentIDs:  nil,
			Publishers:  csv(*publishers),
			IPs:         csv(*ips),
			ISPs:        csv(*isps),
			Countries:   csv(*countries),
			SeedersOnly: *seeders,
			AsOf:        *asOf,
		},
		GroupBy: query.GroupBy{Key: *group, Bucket: query.Duration(*bucket)},
		Aggs:    csv(*aggs),
		OrderBy: query.OrderBy{Field: *order, Desc: *desc},
		Limit:   *limit,
		Cursor:  *cursor,
	}
	var err error
	if q.Filter.MinTime, err = parseTime(*minT, "-min"); err != nil {
		return err
	}
	if q.Filter.MaxTime, err = parseTime(*maxT, "-max"); err != nil {
		return err
	}
	if *torrents != "" {
		for _, s := range csv(*torrents) {
			id, err := strconv.Atoi(s)
			if err != nil {
				return fmt.Errorf("-torrents: %q is not an integer", s)
			}
			q.Filter.TorrentIDs = append(q.Filter.TorrentIDs, id)
		}
	}
	if err := q.Validate(); err != nil {
		return err
	}

	ctx := context.Background()
	if *explain {
		if *lakeDir == "" {
			return fmt.Errorf("-explain plans against a local lake (use -lake, not -remote)")
		}
		return explainLocal(ctx, q, *lakeDir, *asJSON)
	}
	res, err := execute(ctx, q, *lakeDir, *remote, *timeout)
	if err != nil {
		return err
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		return enc.Encode(res)
	}
	return render(os.Stdout, q, res)
}

// fetchAlerts is the -alerts mode: the server's deduplicated alert feed
// past the -since cursor, optionally long-polling with -wait.
func fetchAlerts(ctx context.Context, out io.Writer, remote string, since uint64, wait, timeout time.Duration, asJSON bool) error {
	c := apiclient.New(remote)
	c.Timeout = timeout
	if wait > 0 && timeout == 0 && wait+5*time.Second > apiclient.DefaultTimeout {
		// Keep the HTTP exchange outliving the server-side long poll.
		c.Timeout = wait + 5*time.Second
	}
	feed, err := c.Alerts(ctx, since, wait)
	if err != nil {
		return err
	}
	if asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", " ")
		return enc.Encode(feed)
	}
	tw := tabwriter.NewWriter(out, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "STATE\tSEVERITY\tRULE\tSUBJECT\tSCORE\tTORRENTS\tIPS\tUPDATED\tREASON")
	for _, a := range feed.Alerts {
		reason := ""
		if len(a.Reasons) > 0 {
			reason = a.Reasons[0]
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.2f\t%d\t%d\tv%d\t%s\n",
			a.State, a.Severity, a.Rule, a.Subject, a.Score, a.Torrents, a.IPs, a.UpdatedVersion, reason)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(out, "\n%d alert(s); resume with -since %d\n", len(feed.Alerts), feed.Version)
	return nil
}

func execute(ctx context.Context, q query.Query, lakeDir, remote string, timeout time.Duration) (*query.Result, error) {
	if remote != "" {
		c := apiclient.New(remote)
		c.Timeout = timeout
		return c.Query(ctx, q)
	}
	lk, err := lake.Open(lakeDir, lake.Options{})
	if err != nil {
		return nil, err
	}
	defer lk.Close()
	db, err := geoip.DefaultDB()
	if err != nil {
		return nil, err
	}
	ex, err := query.NewLake(lk, db)
	if err != nil {
		return nil, err
	}
	return ex.Execute(ctx, q)
}

// explainLocal plans the query against a local lake and prints the
// plan: predicate order and segment pruning (zone maps vs the segments'
// own postings).
func explainLocal(ctx context.Context, q query.Query, lakeDir string, asJSON bool) error {
	lk, err := lake.Open(lakeDir, lake.Options{})
	if err != nil {
		return err
	}
	defer lk.Close()
	db, err := geoip.DefaultDB()
	if err != nil {
		return err
	}
	ex, err := query.NewLake(lk, db)
	if err != nil {
		return err
	}
	pl, err := ex.Explain(ctx, q)
	if err != nil {
		return err
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		return enc.Encode(pl)
	}
	preds := strings.Join(pl.Predicates, " -> ")
	if preds == "" {
		preds = "(none: full scan)"
	}
	fmt.Printf("predicates:      %s\n", preds)
	if pl.PushdownTorrentIDs >= 0 {
		fmt.Printf("torrent pushdown: %d torrent ID(s) compiled from the filter\n", pl.PushdownTorrentIDs)
	}
	fmt.Printf("segments:        %d committed\n", pl.Segments)
	fmt.Printf("  pruned (zone):     %d\n", pl.PrunedZone)
	fmt.Printf("  pruned (postings): %d\n", pl.PrunedPostings)
	fmt.Printf("  opened:            %d (%d rows)\n", len(pl.Opened), pl.Rows)
	if n := len(pl.Opened); n > 0 && n <= 12 {
		for _, f := range pl.Opened {
			fmt.Printf("    %s\n", f)
		}
	}
	return nil
}

// render prints the result as an aligned table.
func render(out *os.File, q query.Query, res *query.Result) error {
	tw := tabwriter.NewWriter(out, 2, 8, 2, ' ', 0)
	if res.Observations != nil || q.Select == query.SelectObservations {
		fmt.Fprintln(tw, "TORRENT\tIP\tAT\tSEEDER")
		for _, o := range res.Observations {
			fmt.Fprintf(tw, "%d\t%s\t%s\t%v\n", o.TorrentID, o.IP, o.At.Format(time.RFC3339), o.Seeder)
		}
	} else {
		// Column order follows the requested aggregates (default applies
		// when none were named).
		names := q.Aggs
		if len(names) == 0 {
			names = []string{query.AggObservations}
		}
		fmt.Fprintf(tw, "KEY\t%s\n", strings.ToUpper(strings.Join(names, "\t")))
		for _, g := range res.Groups {
			key := g.Key
			if key == "" {
				key = "(all)"
			}
			fmt.Fprint(tw, key)
			for _, a := range names {
				fmt.Fprintf(tw, "\t%d", g.Aggs[a])
			}
			fmt.Fprintln(tw)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(out, "\n%d row(s) of %d total\n", len(res.Groups)+len(res.Observations), res.Total)
	if res.NextCursor != "" {
		fmt.Fprintf(out, "next page: -cursor %s\n", res.NextCursor)
	}
	return nil
}

func csv(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

func parseTime(s, flagName string) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		return time.Time{}, fmt.Errorf("%s: %q is not RFC3339 (e.g. 2010-04-06T00:00:00Z)", flagName, s)
	}
	return t, nil
}

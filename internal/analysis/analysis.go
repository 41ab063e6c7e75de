// Package analysis regenerates every table and figure of the paper's
// evaluation from a crawled dataset: contribution skewness (Figure 1), the
// ISP tables (Tables 2–3), the publisher signature (Figures 2–4), the
// business classification with its longitudinal and income views
// (Section 5, Tables 4–5) and the hosting-provider income estimate
// (Section 6).
package analysis

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"btpub/internal/classify"
	"btpub/internal/dataset"
	"btpub/internal/geoip"
	"btpub/internal/population"
	"btpub/internal/sessions"
	"btpub/internal/stats"
)

// Analysis holds the indexed dataset.
type Analysis struct {
	DS     *dataset.Dataset
	DB     *geoip.DB
	Facts  *classify.Facts
	Groups *classify.Groups

	// idx is the immutable one-pass index (the ISP aggregates, per-user
	// interned-IP sets, the per-IP observation inversion Seeding builds
	// on first use) that every table/figure consumer reads instead of
	// rebuilding maps per call.
	idx *index
}

// New indexes a dataset for analysis. The dataset must be canonical, as
// dataset.Merge and the lake's readers produce it: record i carries
// TorrentID i and every observation names one of the records; anything
// else is an error. topK <= 0 picks the paper's 3 % rule.
func New(ds *dataset.Dataset, db *geoip.DB, topK int) (*Analysis, error) {
	if ds == nil || db == nil {
		return nil, errors.New("analysis: dataset and geo DB required")
	}
	facts, err := classify.BuildFacts(ds, db)
	if err != nil {
		return nil, err
	}
	return assemble(ds, db, facts, topK), nil
}

// NewSeeded is New with the distinct-download passes replaced by
// precomputed counts (see classify.FactsSeed) — the entry point for the
// incremental maintainer in internal/delta, which only recounts what a
// lake delta touched. Everything downstream of facts (groups, index,
// aggregates) is rebuilt as in New; with an exact seed the result is
// observably identical.
func NewSeeded(ds *dataset.Dataset, db *geoip.DB, topK int, seed *classify.FactsSeed) (*Analysis, error) {
	if ds == nil || db == nil {
		return nil, errors.New("analysis: dataset and geo DB required")
	}
	facts, err := classify.BuildFactsSeeded(ds, db, seed)
	if err != nil {
		return nil, err
	}
	return assemble(ds, db, facts, topK), nil
}

func assemble(ds *dataset.Dataset, db *geoip.DB, facts *classify.Facts, topK int) *Analysis {
	return &Analysis{
		DS:     ds,
		DB:     db,
		Facts:  facts,
		Groups: facts.BuildGroups(topK, 400),
		idx:    buildIndex(ds, facts),
	}
}

// UploadTimes collects one publisher's publish times (Unix nanoseconds,
// sorted) plus their bounds; records without a publish time are skipped.
func (a *Analysis) UploadTimes(u *classify.UserFacts) (first, last time.Time, times []int64) {
	times = make([]int64, 0, len(u.TorrentIDs))
	for _, tid := range u.TorrentIDs {
		if p := a.DS.Torrents[tid].Published; !p.IsZero() {
			times = append(times, p.UnixNano())
		}
	}
	slices.Sort(times)
	if len(times) > 0 {
		first = time.Unix(0, times[0]).UTC()
		last = time.Unix(0, times[len(times)-1]).UTC()
	}
	return first, last, times
}

// GroupNames are the figure labels in display order.
var GroupNames = []string{"All", "Fake", "Top", "Top-HP", "Top-CI"}

// groupMembers resolves a label to its user set.
func (a *Analysis) groupMembers(label string) []*classify.UserFacts {
	switch label {
	case "All":
		return a.Groups.All
	case "Fake":
		return a.Groups.Fake
	case "Top":
		return a.Groups.Top
	case "Top-HP":
		return a.Groups.TopHP
	case "Top-CI":
		return a.Groups.TopCI
	default:
		return nil
	}
}

// ---------------------------------------------------------------------
// Figure 1 — skewness of contribution
// ---------------------------------------------------------------------

// Skewness is the Figure 1 result.
type Skewness struct {
	Curve []stats.SharePoint
	// TopShare3Pct is the content share of the top 3 % of publishers
	// (the paper reads ~40 % off the curve).
	TopShare3Pct float64
	// TopKShare / TopKDownloadShare quantify the top-K cut (the paper's
	// "around 100 publishers produce 2/3 of content and 3/4 of downloads"
	// once fake publishers are included).
	TopKShare         float64
	TopKDownloadShare float64
	Gini              float64
	Publishers        int
}

// Skewness computes the contribution distribution.
func (a *Analysis) Skewness() Skewness {
	contrib := make([]float64, 0, len(a.Facts.Users))
	for _, u := range a.Facts.Users {
		contrib = append(contrib, float64(len(u.TorrentIDs)))
	}
	curve := stats.ShareCurve(contrib)
	out := Skewness{
		Curve:        curve,
		TopShare3Pct: stats.ShareAt(curve, 3),
		Gini:         stats.Gini(contrib),
		Publishers:   len(contrib),
	}
	// Top-K (fake + top) share of content and downloads: the paper's
	// "2/3 of content, 3/4 of downloads from ~100 publishers" claim is
	// about the major-publisher set = fake entities' usernames + top
	// publishers together.
	major := map[string]bool{}
	for _, u := range a.Groups.Fake {
		major[u.Username] = true
	}
	for _, u := range a.Groups.Top {
		major[u.Username] = true
	}
	var torrents, downloads int
	for name := range major {
		u := a.Facts.Users[name]
		torrents += len(u.TorrentIDs)
		// Sum the per-torrent distinct counts, not UserFacts.Downloads:
		// the share is relative to TotalDownloads, which is a per-torrent
		// sum, so the numerator must stay on the same basis (a loyal IP
		// fetching 50 of a publisher's torrents counts 50 times in both).
		for _, tid := range u.TorrentIDs {
			downloads += a.Facts.DownloadsByTorrent[tid]
		}
	}
	if a.Facts.TotalTorrents > 0 {
		out.TopKShare = float64(torrents) / float64(a.Facts.TotalTorrents)
	}
	if a.Facts.TotalDownloads > 0 {
		out.TopKDownloadShare = float64(downloads) / float64(a.Facts.TotalDownloads)
	}
	return out
}

// ---------------------------------------------------------------------
// Tables 2 and 3 — publishers per ISP
// ---------------------------------------------------------------------

// ISPRow is one Table 2 row.
type ISPRow struct {
	ISP     string
	Type    geoip.ISPType
	Percent float64 // % of identified-publisher content
}

// ISPTable ranks ISPs by the content their publishers feed (Table 2). The
// ranking is precomputed at New; each call copies the requested head.
func (a *Analysis) ISPTable(topN int) []ISPRow {
	rows := a.idx.ispRows
	if topN > 0 && len(rows) > topN {
		rows = rows[:topN]
	}
	out := make([]ISPRow, len(rows))
	copy(out, rows)
	return out
}

// ISPContrast is one Table 3 row: the footprint of one ISP's feeders.
type ISPContrast struct {
	ISP          string
	FedTorrents  int
	IPAddresses  int
	Slash16s     int
	GeoLocations int
}

// ContrastISPs reproduces Table 3 for the named providers (the paper uses
// OVH vs Comcast). Footprints are precomputed at New; unknown names yield
// zero rows, as the scan did.
func (a *Analysis) ContrastISPs(names ...string) []ISPContrast {
	out := make([]ISPContrast, len(names))
	for i, n := range names {
		if c, ok := a.idx.contrast[n]; ok {
			out[i] = c
		} else {
			out[i].ISP = n
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Figure 2 — content types per group
// ---------------------------------------------------------------------

// ContentTypes maps group label -> category label -> share.
func (a *Analysis) ContentTypes() map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for _, label := range GroupNames {
		members := a.groupMembers(label)
		counts := map[string]int{}
		total := 0
		for _, u := range members {
			for _, tid := range u.TorrentIDs {
				counts[NormalizeCategory(a.DS.Torrents[tid].Category)]++
				total++
			}
		}
		shares := map[string]float64{}
		if total > 0 {
			// Guard the division: a group with no torrents contributes an
			// empty share map, not NaNs.
			for cat, n := range counts {
				shares[cat] = float64(n) / float64(total)
			}
		}
		out[label] = shares
	}
	return out
}

// NormalizeCategory folds portal category labels to Figure 2's groups.
func NormalizeCategory(portalCategory string) string {
	c := portalCategory
	if i := strings.Index(c, ">"); i >= 0 {
		c = strings.TrimSpace(c[i+1:])
	}
	switch c {
	case population.Movies.String(), population.TVShows.String(), population.Porn.String():
		return "Video"
	case population.Music.String():
		return "Audio"
	case population.Apps.String():
		return "Software"
	case population.Games.String():
		return "Games"
	case population.Books.String():
		return "Books"
	default:
		return "Other"
	}
}

// VideoShare sums the Video share for one group from ContentTypes output.
func VideoShare(types map[string]float64) float64 { return types["Video"] }

// ---------------------------------------------------------------------
// Figure 3 — popularity per group
// ---------------------------------------------------------------------

// Popularity summarises avg downloaders per torrent per publisher for each
// group (Figure 3's boxes).
func (a *Analysis) Popularity() map[string]stats.FiveNum {
	out := map[string]stats.FiveNum{}
	for _, label := range GroupNames {
		var vals []float64
		for _, u := range a.groupMembers(label) {
			if len(u.TorrentIDs) == 0 {
				continue
			}
			vals = append(vals, float64(u.Downloads)/float64(len(u.TorrentIDs)))
		}
		out[label] = stats.Summarize(vals)
	}
	return out
}

// ---------------------------------------------------------------------
// Figure 4 — seeding behaviour per group
// ---------------------------------------------------------------------

// SeedingBehaviour bundles the three Figure 4 panels.
type SeedingBehaviour struct {
	// AvgSeedTimeHours: average seeding time per torrent per publisher (4a).
	AvgSeedTimeHours map[string]stats.FiveNum
	// AvgParallel: average number of torrents seeded in parallel (4b).
	AvgParallel map[string]stats.FiveNum
	// SessionHours: aggregated session time per publisher (4c).
	SessionHours map[string]stats.FiveNum
	// Estimated publishers per group (those with identified IPs).
	Covered map[string]int
}

// Seeding estimates publisher seeding behaviour from tracker sightings of
// the publishers' identified IPs, using the Appendix A session estimator
// with the given gap threshold (zero = the paper's ~4 h).
func (a *Analysis) Seeding(gap time.Duration) SeedingBehaviour {
	est := sessions.Estimator{Gap: gap, MinSession: 15 * time.Minute}
	store := a.idx.store
	out := SeedingBehaviour{
		AvgSeedTimeHours: map[string]stats.FiveNum{},
		AvgParallel:      map[string]stats.FiveNum{},
		SessionHours:     map[string]stats.FiveNum{},
		Covered:          map[string]int{},
	}
	// Scratch reused across users: a torrent-membership stamp array (epoch
	// per user, no per-user set maps) and the user's (torrent, time) pairs
	// gathered from its IPs' pre-inverted observation lists — the walk
	// touches only the publisher's own sightings, never the full spans of
	// the torrents it fed.
	type pair struct {
		tid  int32
		atNs int64
	}
	a.idx.ipOnce.Do(a.idx.buildIPOrder)
	stamp := make([]int32, len(a.DS.Torrents))
	for i := range stamp {
		stamp[i] = -1
	}
	epoch := int32(-1)
	var pairs []pair
	var sightings []time.Time
	for _, label := range GroupNames {
		var seedTimes, parallels, sessionTotals []float64
		covered := 0
		for _, u := range a.groupMembers(label) {
			// An identified IP the tracker never returned cannot match any
			// observation, so users absent from the index are skipped
			// exactly as their empty scans were.
			ipset := a.idx.userIPIdx[u.Username]
			if len(ipset) == 0 {
				continue
			}
			epoch++
			for _, tid := range u.TorrentIDs {
				stamp[tid] = epoch
			}
			pairs = pairs[:0]
			for _, ipIdx := range ipset {
				for _, oi := range a.idx.ipSpan(ipIdx) {
					if tid := store.TorrentID(int(oi)); stamp[tid] == epoch {
						pairs = append(pairs, pair{int32(tid), store.UnixNano(int(oi))})
					}
				}
			}
			if len(pairs) == 0 {
				continue
			}
			slices.SortFunc(pairs, func(x, y pair) int {
				if x.tid != y.tid {
					return int(x.tid) - int(y.tid)
				}
				switch {
				case x.atNs < y.atNs:
					return -1
				case x.atNs > y.atNs:
					return 1
				}
				return 0
			})
			var perTorrent [][]sessions.Session
			var all []sessions.Session
			var torrentHours []float64
			for lo := 0; lo < len(pairs); {
				hi := lo + 1
				for hi < len(pairs) && pairs[hi].tid == pairs[lo].tid {
					hi++
				}
				sightings = sightings[:0]
				for _, p := range pairs[lo:hi] {
					sightings = append(sightings, time.Unix(0, p.atNs).UTC())
				}
				ss := est.StitchSorted(sightings)
				perTorrent = append(perTorrent, ss)
				all = append(all, ss...)
				torrentHours = append(torrentHours, sessions.TotalDuration(ss).Hours())
				lo = hi
			}
			covered++
			seedTimes = append(seedTimes, stats.Mean(torrentHours))
			parallels = append(parallels, sessions.AvgParallel(perTorrent))
			sessionTotals = append(sessionTotals,
				sessions.TotalDuration(sessions.Merge(all)).Hours())
		}
		out.AvgSeedTimeHours[label] = stats.Summarize(seedTimes)
		out.AvgParallel[label] = stats.Summarize(parallels)
		out.SessionHours[label] = stats.Summarize(sessionTotals)
		out.Covered[label] = covered
	}
	return out
}

// ---------------------------------------------------------------------
// Section 6 — hosting-provider income
// ---------------------------------------------------------------------

// HostingIncome estimates a hosting provider's monthly income from
// publisher-rented servers (Section 6's OVH estimate: distinct publisher
// IPs × monthly server price).
type HostingIncome struct {
	ISP              string
	PublisherServers int
	MonthlyEUR       float64
}

// HostingIncomeFor computes the estimate at the paper's 300 EUR/month.
func (a *Analysis) HostingIncomeFor(isp string) HostingIncome {
	servers := a.idx.hostingServers[isp]
	return HostingIncome{
		ISP:              isp,
		PublisherServers: servers,
		MonthlyEUR:       float64(servers) * 300,
	}
}

// ---------------------------------------------------------------------
// Table 1 — dataset description
// ---------------------------------------------------------------------

// DatasetSummary is one Table 1 row.
type DatasetSummary struct {
	Name              string
	Start, End        time.Time
	TorrentsUsername  int
	TorrentsIP        int
	DistinctIPs       int
	TotalObservations int
}

// Summary computes the Table 1 row for this dataset.
func (a *Analysis) Summary() DatasetSummary {
	return DatasetSummary{
		Name:              a.DS.Name,
		Start:             a.DS.Start,
		End:               a.DS.End,
		TorrentsUsername:  a.DS.TorrentsWithUsername(),
		TorrentsIP:        a.DS.TorrentsWithIP(),
		DistinctIPs:       a.DS.DistinctIPs(),
		TotalObservations: a.DS.NumObservations(),
	}
}

// String implements fmt.Stringer.
func (d DatasetSummary) String() string {
	return fmt.Sprintf("%s: %s..%s, torrents(user/IP)=%d/%d, distinct IPs=%d",
		d.Name, d.Start.Format("2006-01-02"), d.End.Format("2006-01-02"),
		d.TorrentsUsername, d.TorrentsIP, d.DistinctIPs)
}

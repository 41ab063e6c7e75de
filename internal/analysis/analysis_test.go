package analysis_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
	"time"

	"btpub/internal/analysis"
	"btpub/internal/campaign"
	"btpub/internal/classify"
	"btpub/internal/dataset"
	"btpub/internal/delta"
	"btpub/internal/geoip"
	"btpub/internal/webmon"
)

var (
	once sync.Once
	res  *campaign.Result
	an   *analysis.Analysis
	fail error
)

// world returns the shared crawled campaign and its analysis.
func world(t *testing.T) (*campaign.Result, *analysis.Analysis) {
	t.Helper()
	once.Do(func() {
		res, fail = campaign.Run(campaign.Spec{Scale: 0.05, MeanDownloads: 350, Seed: 1})
		if fail != nil {
			return
		}
		an, fail = analysis.New(res.Dataset, res.DB, 0)
	})
	if fail != nil {
		t.Fatal(fail)
	}
	return res, an
}

func TestSkewnessShape(t *testing.T) {
	_, a := world(t)
	sk := a.Skewness()
	if sk.Publishers < 50 {
		t.Fatalf("publishers = %d", sk.Publishers)
	}
	// Figure 1: top 3% of publishers hold roughly 40% of content.
	if sk.TopShare3Pct < 25 || sk.TopShare3Pct > 60 {
		t.Errorf("top-3%% share = %.1f%%, paper ~40%%", sk.TopShare3Pct)
	}
	// Major publishers (fake+top): ~2/3 of content, ~3/4 of downloads.
	if sk.TopKShare < 0.5 || sk.TopKShare > 0.8 {
		t.Errorf("major content share = %.2f, paper ~0.66", sk.TopKShare)
	}
	if sk.TopKDownloadShare < 0.55 || sk.TopKDownloadShare > 0.9 {
		t.Errorf("major download share = %.2f, paper ~0.75", sk.TopKDownloadShare)
	}
	t.Logf("Figure 1: top3%%=%.1f%% majorContent=%.2f majorDownloads=%.2f gini=%.3f",
		sk.TopShare3Pct, sk.TopKShare, sk.TopKDownloadShare, sk.Gini)
}

func TestISPTableShape(t *testing.T) {
	_, a := world(t)
	rows := a.ISPTable(10)
	if len(rows) < 5 {
		t.Fatalf("ISP rows = %d", len(rows))
	}
	// Table 2: OVH leads with a double-digit share; hosting providers and
	// commercial ISPs both appear.
	if rows[0].ISP != geoip.OVH {
		t.Errorf("top ISP = %s, paper: OVH", rows[0].ISP)
	}
	if rows[0].Percent < 8 || rows[0].Percent > 40 {
		t.Errorf("OVH share = %.1f%%, paper 13-25%%", rows[0].Percent)
	}
	sawHosting, sawCommercial := false, false
	for _, r := range rows {
		if r.Type == geoip.Hosting {
			sawHosting = true
		} else {
			sawCommercial = true
		}
	}
	if !sawHosting || !sawCommercial {
		t.Errorf("ISP table lacks one provider type: %+v", rows)
	}
	t.Logf("Table 2 head: %s %.1f%% / %s %.1f%%", rows[0].ISP, rows[0].Percent, rows[1].ISP, rows[1].Percent)
}

func TestISPContrastShape(t *testing.T) {
	_, a := world(t)
	rows := a.ContrastISPs(geoip.OVH, geoip.Comcast)
	ovh, comcast := rows[0], rows[1]
	if ovh.FedTorrents == 0 || comcast.FedTorrents == 0 {
		t.Fatalf("missing feeders: %+v", rows)
	}
	// Table 3's contrast: OVH feeds far more torrents, concentrated in few
	// prefixes/data centres; Comcast feeders scatter one IP per prefix and
	// location. At small scale the absolute prefix counts shrink, so the
	// assertions are about density and ordering, which is the paper's
	// actual point.
	if ovh.FedTorrents <= comcast.FedTorrents {
		t.Errorf("OVH fed %d <= Comcast %d, paper has OVH ~3-7x", ovh.FedTorrents, comcast.FedTorrents)
	}
	ovhDensity := float64(ovh.FedTorrents) / float64(ovh.Slash16s)
	ccDensity := float64(comcast.FedTorrents) / float64(comcast.Slash16s)
	if ovhDensity <= ccDensity {
		t.Errorf("OVH torrents-per-prefix %.1f <= Comcast %.1f; paper: OVH concentrated", ovhDensity, ccDensity)
	}
	if ovh.GeoLocations > comcast.GeoLocations {
		t.Errorf("OVH locations %d > Comcast %d; paper: 2-4 vs 129-400", ovh.GeoLocations, comcast.GeoLocations)
	}
	t.Logf("Table 3: OVH %+v vs Comcast %+v", ovh, comcast)
}

func TestCrossAnalysisShape(t *testing.T) {
	_, a := world(t)
	ca := a.Facts.Cross(2 * a.Groups.TopK)
	// §3.3: a meaningful minority of top IPs carry multiple usernames
	// (fakes); at small scales the fake entities own only a few IPs, so the
	// threshold is loose.
	if ca.MultiUserIPShare < 0.05 {
		t.Errorf("multi-user IP share = %.2f, paper 0.45", ca.MultiUserIPShare)
	}
	// The hosting-pool case and at least one multi-IP commercial case appear.
	if ca.HostingPoolShare == 0 || ca.DynamicShare+ca.MultiISPShare == 0 {
		t.Errorf("cross analysis misses cases: %+v", ca)
	}
	t.Logf("§3.3: multiUserIP=%.2f single=%.2f pool=%.2f(%.1f IPs) dyn=%.2f(%.1f) multi=%.2f(%.1f)",
		ca.MultiUserIPShare, ca.SingleIPShare, ca.HostingPoolShare, ca.HostingPoolAvgIPs,
		ca.DynamicShare, ca.DynamicAvgIPs, ca.MultiISPShare, ca.MultiISPAvgIPs)
}

// TestContentTypesEmptyGroupIsNaNFree pins the divide-by-zero guard: a
// group with no torrents must yield an empty share map, never NaN shares.
func TestContentTypesEmptyGroupIsNaNFree(t *testing.T) {
	db, err := geoip.DefaultDB()
	if err != nil {
		t.Fatal(err)
	}
	ds := &dataset.Dataset{Name: "tiny",
		Start: time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC),
		End:   time.Date(2010, 5, 6, 0, 0, 0, 0, time.UTC)}
	ds.AddTorrent(&dataset.TorrentRecord{
		TorrentID: 0, InfoHash: strings.Repeat("ab", 20), Username: "alice",
		Category: "Video > Movies", Published: ds.Start.Add(time.Hour),
	})
	a, err := analysis.New(ds, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	types := a.ContentTypes()
	// One genuine user: the Fake group (among others) is empty.
	if len(types["Fake"]) != 0 {
		t.Fatalf("empty group produced shares: %+v", types["Fake"])
	}
	for g, shares := range types {
		for cat, v := range shares {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("group %s category %s share = %v", g, cat, v)
			}
		}
	}
}

// TestNewRejectsNonCanonical: analysis input is canonical, and New
// names what breaks that — a record off its position, or an observation
// of a torrent the dataset has no record for.
func TestNewRejectsNonCanonical(t *testing.T) {
	db, err := geoip.DefaultDB()
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)
	build := func() *dataset.Dataset {
		ds := &dataset.Dataset{Name: "tiny", Start: t0, End: t0.AddDate(0, 1, 0)}
		for i := 0; i < 3; i++ {
			ds.AddTorrent(&dataset.TorrentRecord{
				TorrentID: i, InfoHash: strings.Repeat("ab", 19) + fmt.Sprintf("%02d", i),
				Username: "alice", Published: t0.Add(time.Duration(i) * time.Hour),
			})
			ds.AddObservation(dataset.Observation{TorrentID: i, IP: "99.0.0.1", At: t0.Add(time.Duration(i) * time.Hour)})
		}
		return ds
	}
	if _, err := analysis.New(build(), db, 0); err != nil {
		t.Fatalf("canonical dataset refused: %v", err)
	}
	ds := build()
	ds.Torrents[1].TorrentID = 7
	if _, err := analysis.New(ds, db, 0); err == nil || !strings.Contains(err.Error(), "record 1 carries torrent ID 7") {
		t.Fatalf("record off its position: New error = %v", err)
	}
	ds = build()
	ds.AddObservation(dataset.Observation{TorrentID: 3, IP: "99.0.0.2", At: t0})
	if _, err := analysis.New(ds, db, 0); err == nil || !strings.Contains(err.Error(), "observation names torrent ID 3") {
		t.Fatalf("observation past the records: New error = %v", err)
	}
}

// TestMergeCanonicalizesForAnalysis: a dataset whose records are
// shuffled and sparsely numbered, with its observations and users in
// reverse, analyzes after dataset.Merge exactly like the canonical
// original — the path btpub-analyze takes for a JSONL file.
func TestMergeCanonicalizesForAnalysis(t *testing.T) {
	res, a := world(t)
	ds := res.Dataset
	n := len(ds.Torrents)
	shuffled := &dataset.Dataset{Name: ds.Name, Start: ds.Start, End: ds.End}
	newID := make([]int, n) // canonical ID -> shuffled ID
	for pos, k := range rand.New(rand.NewPCG(7, 7)).Perm(n) {
		cp := *ds.Torrents[k]
		cp.TorrentID = 2*pos + 5
		newID[k] = cp.TorrentID
		shuffled.AddTorrent(&cp)
	}
	for i := ds.Obs.Len() - 1; i >= 0; i-- {
		o := ds.Obs.At(i)
		o.TorrentID = newID[o.TorrentID]
		shuffled.AddObservation(o)
	}
	for i := len(ds.Users) - 1; i >= 0; i-- {
		shuffled.Users = append(shuffled.Users, ds.Users[i])
	}
	got, err := analysis.New(dataset.Merge(ds.Name, shuffled), res.DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	gotFP, err := delta.Fingerprint(got)
	if err != nil {
		t.Fatal(err)
	}
	wantFP, err := delta.Fingerprint(a)
	if err != nil {
		t.Fatal(err)
	}
	if gotFP != wantFP {
		t.Fatalf("merged shuffle fingerprint %s, canonical original %s", gotFP, wantFP)
	}
}

func TestContentTypesShape(t *testing.T) {
	_, a := world(t)
	types := a.ContentTypes()
	for _, g := range analysis.GroupNames {
		if len(types[g]) == 0 {
			t.Fatalf("no content types for group %s", g)
		}
	}
	// Figure 2: video is a large share everywhere; fake skews video+software.
	allVideo := analysis.VideoShare(types["All"])
	if allVideo < 0.25 || allVideo > 0.65 {
		t.Errorf("All video share = %.2f, paper 0.37-0.51", allVideo)
	}
	fakeVS := analysis.VideoShare(types["Fake"]) + types["Fake"]["Software"]
	if fakeVS < 0.6 {
		t.Errorf("Fake video+software = %.2f, paper: dominant", fakeVS)
	}
	t.Logf("Figure 2: video shares All=%.2f Fake=%.2f Top=%.2f Top-HP=%.2f",
		allVideo, analysis.VideoShare(types["Fake"]),
		analysis.VideoShare(types["Top"]), analysis.VideoShare(types["Top-HP"]))
}

func TestPopularityShape(t *testing.T) {
	_, a := world(t)
	pop := a.Popularity()
	all, top, fake := pop["All"], pop["Top"], pop["Fake"]
	hp, ci := pop["Top-HP"], pop["Top-CI"]
	if all.N == 0 || top.N == 0 || fake.N == 0 {
		t.Fatalf("empty groups: all=%d top=%d fake=%d", all.N, top.N, fake.N)
	}
	ratio := top.Median / all.Median
	if ratio < 2.5 {
		t.Errorf("Top/All median popularity = %.1f, paper ~7", ratio)
	}
	if fake.Median >= all.Median {
		t.Errorf("Fake median %.1f >= All %.1f; paper: fake least popular", fake.Median, all.Median)
	}
	if hp.N > 0 && ci.N > 0 && hp.Median <= ci.Median {
		t.Errorf("Top-HP median %.1f <= Top-CI %.1f, paper: HP ~1.5x", hp.Median, ci.Median)
	}
	t.Logf("Figure 3 medians: All=%.1f Fake=%.1f Top=%.1f (x%.1f) HP=%.1f CI=%.1f",
		all.Median, fake.Median, top.Median, ratio, hp.Median, ci.Median)
}

func TestSeedingShape(t *testing.T) {
	_, a := world(t)
	sb := a.Seeding(0)
	st, par, ses := sb.AvgSeedTimeHours, sb.AvgParallel, sb.SessionHours
	if st["Fake"].N == 0 || st["Top"].N == 0 || st["All"].N == 0 {
		t.Fatalf("seeding coverage: %+v", sb.Covered)
	}
	// Figure 4(a): fake publishers seed far longer than anyone else.
	if st["Fake"].Median <= st["Top"].Median {
		t.Errorf("fake seed time %.1fh <= top %.1fh", st["Fake"].Median, st["Top"].Median)
	}
	if st["Top"].Median <= st["All"].Median {
		t.Errorf("top seed time %.1fh <= all %.1fh", st["Top"].Median, st["All"].Median)
	}
	// Figure 4(b): fake publishers seed many torrents in parallel; top ~3;
	// ordinary users ~1.
	if par["Fake"].Median <= par["Top"].Median {
		t.Errorf("fake parallel %.1f <= top %.1f", par["Fake"].Median, par["Top"].Median)
	}
	if par["All"].Median > 2.0 {
		t.Errorf("All parallel median = %.1f, paper ~1", par["All"].Median)
	}
	// Figure 4(c): fake sessions longest; top ~10x All.
	if ses["Fake"].Median <= ses["All"].Median {
		t.Errorf("fake session %.1fh <= all %.1fh", ses["Fake"].Median, ses["All"].Median)
	}
	if ses["Top"].Median <= ses["All"].Median {
		t.Errorf("top session %.1fh <= all %.1fh", ses["Top"].Median, ses["All"].Median)
	}
	t.Logf("Figure 4 medians: seed(h) all=%.1f top=%.1f fake=%.1f | parallel all=%.1f top=%.1f fake=%.1f | session(h) all=%.1f top=%.1f fake=%.1f",
		st["All"].Median, st["Top"].Median, st["Fake"].Median,
		par["All"].Median, par["Top"].Median, par["Fake"].Median,
		ses["All"].Median, ses["Top"].Median, ses["Fake"].Median)
}

func TestBusinessClassificationShape(t *testing.T) {
	r, a := world(t)
	mon, err := webmon.NewDirectory(r.World, 99)
	if err != nil {
		t.Fatal(err)
	}
	profiles, sums, err := a.Business(mon)
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) == 0 {
		t.Fatal("no profiles")
	}
	byClass := map[classify.BusinessClass]analysis.BusinessSummary{}
	for _, s := range sums {
		byClass[s.Class] = s
	}
	portal, other, alt := byClass[classify.BTPortal], byClass[classify.OtherWeb], byClass[classify.Altruist]
	if portal.Publishers == 0 || other.Publishers == 0 || alt.Publishers == 0 {
		t.Fatalf("empty business class: %+v", sums)
	}
	// §5.1: roughly half of top publishers are profit-driven.
	profitShare := portal.TopShare + other.TopShare
	if profitShare < 0.25 || profitShare > 0.75 {
		t.Errorf("profit-driven share of top = %.2f, paper ~0.50", profitShare)
	}
	// Profit-driven downloads ≈ 40% of all downloads.
	profitDl := portal.DownloadShare + other.DownloadShare
	if profitDl < 0.2 || profitDl > 0.6 {
		t.Errorf("profit download share = %.2f, paper ~0.40", profitDl)
	}
	// Portals out-earn their content share in downloads.
	if portal.DownloadShare <= portal.ContentShare {
		t.Errorf("portal downloads %.2f <= content %.2f; paper 29%% vs 18%%",
			portal.DownloadShare, portal.ContentShare)
	}
	// The textbox is the dominant promo channel.
	if portal.TextboxShare < 0.5 {
		t.Errorf("portal textbox share = %.2f, paper: dominant", portal.TextboxShare)
	}
	t.Logf("§5.1: portal %d pubs (%.0f%% top, %.1f%%C/%.1f%%D) other %d (%.1f%%C/%.1f%%D) altruist %d (%.1f%%C/%.1f%%D)",
		portal.Publishers, 100*portal.TopShare, 100*portal.ContentShare, 100*portal.DownloadShare,
		other.Publishers, 100*other.ContentShare, 100*other.DownloadShare,
		alt.Publishers, 100*alt.ContentShare, 100*alt.DownloadShare)
}

func TestLongitudinalShape(t *testing.T) {
	r, a := world(t)
	mon, _ := webmon.NewDirectory(r.World, 99)
	profiles, _, err := a.Business(mon)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := a.LongitudinalView(profiles)
	if err != nil {
		t.Fatal(err)
	}
	byClass := map[classify.BusinessClass]analysis.Longitudinal{}
	for _, row := range rows {
		byClass[row.Class] = row
	}
	portal := byClass[classify.BTPortal]
	if portal.LifetimeDays.N == 0 {
		t.Fatal("no portal lifetimes")
	}
	// Table 4: profit-driven publishers have been around for hundreds of
	// days and publish multiple contents per day.
	if portal.LifetimeDays.Mean < 150 || portal.LifetimeDays.Mean > 900 {
		t.Errorf("portal mean lifetime = %.0f days, paper ~466", portal.LifetimeDays.Mean)
	}
	if portal.PublishingRate.Mean < 0.5 {
		t.Errorf("portal mean rate = %.2f/day, paper ~11 at full scale", portal.PublishingRate.Mean)
	}
	t.Logf("Table 4: portal life %.0f/%.0f/%.0f days rate %.2f/%.2f/%.2f per day",
		portal.LifetimeDays.Min, portal.LifetimeDays.Mean, portal.LifetimeDays.Max,
		portal.PublishingRate.Min, portal.PublishingRate.Mean, portal.PublishingRate.Max)
}

func TestIncomeShape(t *testing.T) {
	r, a := world(t)
	mon, _ := webmon.NewDirectory(r.World, 99)
	profiles, _, err := a.Business(mon)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := a.IncomeView(profiles, mon)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.Sites == 0 {
			t.Fatalf("no sites for %v", row.Class)
		}
		// Table 5 shape: tens of dollars a day median, value ~ hundreds of
		// times daily income, tens of thousands of visits.
		if row.DailyIncome.Median < 5 || row.DailyIncome.Median > 1000 {
			t.Errorf("%v median income = %.0f, paper ~50", row.Class, row.DailyIncome.Median)
		}
		ratio := row.ValueUSD.Median / row.DailyIncome.Median
		if ratio < 100 || ratio > 3000 {
			t.Errorf("%v value/income = %.0f, paper ~600", row.Class, ratio)
		}
		if row.DailyVisits.Median < 1000 {
			t.Errorf("%v median visits = %.0f, paper ~21k", row.Class, row.DailyVisits.Median)
		}
	}
	t.Logf("Table 5: %+v", rows)
}

func TestHostingIncomeShape(t *testing.T) {
	_, a := world(t)
	hi := a.HostingIncomeFor(geoip.OVH)
	if hi.PublisherServers == 0 {
		t.Fatal("no OVH publisher servers observed")
	}
	if hi.MonthlyEUR != float64(hi.PublisherServers)*300 {
		t.Fatalf("income arithmetic wrong: %+v", hi)
	}
	t.Logf("§6: OVH %d servers ≈ %.1fK EUR/month", hi.PublisherServers, hi.MonthlyEUR/1000)
}

func TestSeedingThresholdSensitivity(t *testing.T) {
	_, a := world(t)
	// The paper validates 2h/4h/6h thresholds give similar results.
	s2 := a.Seeding(2 * time.Hour)
	s6 := a.Seeding(6 * time.Hour)
	m2 := s2.SessionHours["Top"].Median
	m6 := s6.SessionHours["Top"].Median
	if m2 == 0 || m6 == 0 {
		t.Fatal("empty sensitivity medians")
	}
	if m6 < m2 {
		t.Errorf("larger gap produced smaller sessions: 2h→%.1f 6h→%.1f", m2, m6)
	}
	if m6/m2 > 3 {
		t.Errorf("threshold sensitivity too strong: 2h→%.1f vs 6h→%.1f", m2, m6)
	}
	t.Logf("Appendix A sensitivity: top session median 2h=%.1fh 6h=%.1fh", m2, m6)
}

func TestRenderersProduceOutput(t *testing.T) {
	r, a := world(t)
	mon, _ := webmon.NewDirectory(r.World, 99)
	profiles, sums, err := a.Business(mon)
	if err != nil {
		t.Fatal(err)
	}
	long, err := a.LongitudinalView(profiles)
	if err != nil {
		t.Fatal(err)
	}
	income, err := a.IncomeView(profiles, mon)
	if err != nil {
		t.Fatal(err)
	}
	outputs := []string{
		analysis.RenderSummary([]analysis.DatasetSummary{a.Summary()}),
		analysis.RenderSkewness("pb10", a.Skewness()),
		analysis.RenderISPTable("pb10", a.ISPTable(10)),
		analysis.RenderContrast("pb10", a.ContrastISPs(geoip.OVH, geoip.Comcast)),
		analysis.RenderContentTypes("pb10", a.ContentTypes()),
		analysis.RenderPopularity("pb10", a.Popularity()),
		analysis.RenderSeeding("pb10", a.Seeding(0)),
		analysis.RenderBusiness("pb10", sums),
		analysis.RenderLongitudinal("pb10", long),
		analysis.RenderIncome("pb10", income),
		analysis.RenderCross("pb10", a.Facts.Cross(0)),
		analysis.RenderHostingIncome("pb10", a.HostingIncomeFor(geoip.OVH)),
	}
	for i, out := range outputs {
		if len(strings.TrimSpace(out)) == 0 {
			t.Errorf("renderer %d produced nothing", i)
		}
	}
}

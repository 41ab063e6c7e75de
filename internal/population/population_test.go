package population

import (
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"btpub/internal/geoip"
)

func genWorld(t *testing.T, scale float64) *World {
	t.Helper()
	db, err := geoip.DefaultDB()
	if err != nil {
		t.Fatal(err)
	}
	w, err := Generate(DefaultParams(scale), db)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGenerateDeterministic(t *testing.T) {
	a := genWorld(t, 0.05)
	b := genWorld(t, 0.05)
	if len(a.Torrents) != len(b.Torrents) || len(a.Publishers) != len(b.Publishers) {
		t.Fatalf("sizes differ: %d/%d vs %d/%d",
			len(a.Torrents), len(a.Publishers), len(b.Torrents), len(b.Publishers))
	}
	for i := range a.Torrents {
		x, y := a.Torrents[i], b.Torrents[i]
		if x.Title != y.Title || x.Lambda0 != y.Lambda0 || !x.Published.Equal(y.Published) {
			t.Fatalf("torrent %d differs: %+v vs %+v", i, x, y)
		}
	}
}

func TestContentSharesMatchPaper(t *testing.T) {
	w := genWorld(t, 0.1)
	shares := w.TorrentShareByClass()
	fake := shares[FakeAntipiracy] + shares[FakeMalware]
	top := shares[TopPortal] + shares[TopWeb] + shares[TopAltruistic]
	check := func(name string, got, want, tol float64) {
		if math.Abs(got-want) > tol {
			t.Errorf("%s content share = %.3f, want %.3f±%.3f", name, got, want, tol)
		}
	}
	check("fake", fake, 0.30, 0.02)
	check("portal", shares[TopPortal], 0.18, 0.02)
	check("web", shares[TopWeb], 0.08, 0.02)
	check("altruistic", shares[TopAltruistic], 0.115, 0.02)
	check("top", top, 0.375, 0.03)
}

func TestExpectedDownloadSharesMatchPaper(t *testing.T) {
	w := genWorld(t, 0.1)
	horizon := time.Duration(CampaignDays) * 24 * time.Hour
	// Apply the fake-removal truncation by hand: expected downloads for a
	// fake torrent stop at RemovalAfter.
	sums := map[Class]float64{}
	total := 0.0
	for _, tor := range w.Torrents {
		h := horizon
		if tor.RemovalAfter > 0 && tor.RemovalAfter < h {
			h = tor.RemovalAfter
		}
		d := tor.ExpectedDownloads(h)
		sums[w.Publishers[tor.PublisherID].Class] += d
		total += d
	}
	fake := (sums[FakeAntipiracy] + sums[FakeMalware]) / total
	top := (sums[TopPortal] + sums[TopWeb] + sums[TopAltruistic]) / total
	reg := sums[Regular] / total
	if fake < 0.17 || fake > 0.33 {
		t.Errorf("fake download share = %.3f, want ~0.25", fake)
	}
	if top < 0.42 || top > 0.60 {
		t.Errorf("top download share = %.3f, want ~0.50", top)
	}
	if reg < 0.15 || reg > 0.33 {
		t.Errorf("regular download share = %.3f, want ~0.25", reg)
	}
	t.Logf("download shares: fake=%.3f top=%.3f regular=%.3f", fake, top, reg)
}

func TestFakeUsernameShare(t *testing.T) {
	w := genWorld(t, 0.1)
	fakeUsers, totalUsers := 0, 0
	for _, p := range w.Publishers {
		totalUsers += len(p.Usernames)
		if p.Class.IsFake() {
			fakeUsers += len(p.Usernames)
		}
	}
	frac := float64(fakeUsers) / float64(totalUsers)
	if frac < 0.18 || frac > 0.35 {
		t.Errorf("fake username share = %.3f (%d/%d), want ~0.25",
			frac, fakeUsers, totalUsers)
	}
}

func TestPopularityMedianRatios(t *testing.T) {
	w := genWorld(t, 0.2)
	horizon := time.Duration(CampaignDays) * 24 * time.Hour
	// Per-publisher average expected downloads. The paper's unit of
	// observation is the portal username, which is what the crawler sees —
	// fake entities therefore appear as many small publishers.
	perUser := map[string][]float64{}
	userClass := map[string]Class{}
	for _, tor := range w.Torrents {
		h := horizon
		if tor.RemovalAfter > 0 && tor.RemovalAfter < h {
			h = tor.RemovalAfter
		}
		perUser[tor.Username] = append(perUser[tor.Username], tor.ExpectedDownloads(h))
		userClass[tor.Username] = w.Publishers[tor.PublisherID].Class
	}
	avg := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	var all, top, fake []float64
	for user, xs := range perUser {
		a := avg(xs)
		switch c := userClass[user]; {
		case c == Regular:
			all = append(all, a)
		case c.IsTop():
			top = append(top, a)
		case c.IsFake():
			fake = append(fake, a)
		}
	}
	med := func(xs []float64) float64 {
		sort.Float64s(xs)
		return xs[len(xs)/2]
	}
	mAll, mTop, mFake := med(all), med(top), med(fake)
	ratio := mTop / mAll
	if ratio < 3.5 || ratio > 14 {
		t.Errorf("top/all median popularity ratio = %.2f, want ~7", ratio)
	}
	if mFake >= mAll {
		t.Errorf("fake median %.1f >= all median %.1f; paper wants fake lowest", mFake, mAll)
	}
	t.Logf("median per-publisher popularity: all=%.1f top=%.1f fake=%.1f (top/all=%.1f)",
		mAll, mTop, mFake, ratio)
}

func TestHostedShareOfTop(t *testing.T) {
	w := genWorld(t, 1.0)
	db, _ := geoip.DefaultDB()
	hosted, total, ovh := 0, 0, 0
	for _, p := range w.Publishers {
		if !p.Class.IsTop() {
			continue
		}
		total++
		if isp := db.ISPByName(p.ISP); isp != nil && isp.Type == geoip.Hosting {
			hosted++
			if p.ISP == geoip.OVH {
				ovh++
			}
		}
	}
	frac := float64(hosted) / float64(total)
	if frac < 0.28 || frac > 0.56 {
		t.Errorf("hosted share of top = %.3f (%d/%d), want ~0.42", frac, hosted, total)
	}
	if hosted > 0 {
		ovhFrac := float64(ovh) / float64(hosted)
		if ovhFrac < 0.3 || ovhFrac > 0.8 {
			t.Errorf("OVH share of hosted top = %.3f, want ~0.55", ovhFrac)
		}
	}
}

func TestIPPolicyMixOfTop(t *testing.T) {
	w := genWorld(t, 1.0)
	counts := map[IPPolicy]int{}
	total := 0
	for _, p := range w.Publishers {
		if !p.Class.IsTop() {
			continue
		}
		counts[p.IPPolicy]++
		total++
	}
	frac := func(p IPPolicy) float64 { return float64(counts[p]) / float64(total) }
	if f := frac(IPStatic); f < 0.15 || f > 0.38 {
		t.Errorf("static share = %.3f, want ~0.26", f)
	}
	if f := frac(IPPool); f < 0.24 || f > 0.45 {
		t.Errorf("pool share = %.3f, want ~0.34", f)
	}
	if f := frac(IPDynamic); f < 0.14 || f > 0.34 {
		t.Errorf("dynamic share = %.3f, want ~0.24", f)
	}
	if f := frac(IPMultiHome); f < 0.08 || f > 0.26 {
		t.Errorf("multihome share = %.3f, want ~0.16", f)
	}
}

func TestIPPoolSizesMatchPaper(t *testing.T) {
	w := genWorld(t, 0.5)
	sums := map[IPPolicy]float64{}
	counts := map[IPPolicy]int{}
	for _, p := range w.Publishers {
		if !p.Class.IsTop() {
			continue
		}
		sums[p.IPPolicy] += float64(len(p.IPs))
		counts[p.IPPolicy]++
	}
	avg := func(pol IPPolicy) float64 { return sums[pol] / float64(counts[pol]) }
	if a := avg(IPPool); a < 4 || a > 8 {
		t.Errorf("pool avg IPs = %.1f, want ~5.7", a)
	}
	if a := avg(IPDynamic); a < 11 || a > 17 {
		t.Errorf("dynamic avg IPs = %.1f, want ~13.8", a)
	}
	if a := avg(IPMultiHome); a < 5.5 || a > 10 {
		t.Errorf("multihome avg IPs = %.1f, want ~7.7", a)
	}
	if a := avg(IPStatic); a != 1 {
		t.Errorf("static avg IPs = %.1f, want 1", a)
	}
}

func TestFakePublishersFromExpectedISPs(t *testing.T) {
	w := genWorld(t, 0.2)
	allowed := map[string]bool{}
	for _, n := range geoip.FakeHostingProviders() {
		allowed[n] = true
	}
	for _, p := range w.Publishers {
		if p.Class.IsFake() && !allowed[p.ISP] {
			t.Errorf("fake publisher at unexpected ISP %q", p.ISP)
		}
	}
}

func TestProfitPublishersHaveSitesAndPromo(t *testing.T) {
	w := genWorld(t, 0.2)
	for _, p := range w.Publishers {
		if p.Class.IsProfit() {
			if p.Site == nil {
				t.Fatalf("profit publisher %v has no site", p.Usernames)
			}
			if p.Site.URL == "" || p.Site.DailyVisits <= 0 || p.Site.ValueUSD <= 0 {
				t.Fatalf("bad site: %+v", p.Site)
			}
			if len(p.Promo) == 0 {
				t.Fatalf("profit publisher %v has no promo channels", p.Usernames)
			}
		} else if p.Site != nil {
			t.Fatalf("non-profit publisher %v has a site", p.Usernames)
		}
	}
}

func TestPromoURLReachesTorrents(t *testing.T) {
	w := genWorld(t, 0.1)
	withPromo := 0
	var sawFilename, sawBundled bool
	for _, tor := range w.Torrents {
		pub := w.Publishers[tor.PublisherID]
		if pub.Class.IsProfit() {
			if tor.PromoURL == "" {
				t.Fatalf("profit torrent without promo URL: %q", tor.Title)
			}
			if !strings.Contains(tor.Description, tor.PromoURL) {
				t.Fatalf("textbox does not carry promo URL: %q", tor.Description)
			}
			withPromo++
			if strings.Contains(tor.FileName, tor.PromoURL) {
				sawFilename = true
			}
			for _, bf := range tor.BundledFiles {
				if strings.Contains(bf, tor.PromoURL) {
					sawBundled = true
				}
			}
		} else if tor.PromoURL != "" {
			t.Fatalf("non-profit torrent carries promo URL: %q", tor.Title)
		}
	}
	if withPromo == 0 {
		t.Fatal("no promo torrents generated")
	}
	if !sawFilename || !sawBundled {
		t.Errorf("promo channels missing: filename=%v bundled=%v", sawFilename, sawBundled)
	}
}

func TestFakeTorrentsHaveRemovalDelay(t *testing.T) {
	w := genWorld(t, 0.1)
	for _, tor := range w.Torrents {
		if tor.Fake && tor.RemovalAfter <= 0 {
			t.Fatalf("fake torrent without removal delay: %q", tor.Title)
		}
		if !tor.Fake && tor.RemovalAfter != 0 {
			t.Fatalf("genuine torrent with removal delay: %q", tor.Title)
		}
	}
}

func TestLifetimesMatchTable4Envelopes(t *testing.T) {
	w := genWorld(t, 1.0) // full population for stable stats
	days := map[Class][]float64{}
	for _, p := range w.Publishers {
		if !p.Class.IsTop() {
			continue
		}
		lt := w.Start.Sub(p.AccountCreated).Hours() / 24
		days[p.Class] = append(days[p.Class], lt)
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if m := mean(days[TopPortal]); m < 280 || m > 700 {
		t.Errorf("portal mean lifetime = %.0f days, want ~466", m)
	}
	if m := mean(days[TopWeb]); m < 280 || m > 700 {
		t.Errorf("web mean lifetime = %.0f days, want ~459", m)
	}
	if m := mean(days[TopAltruistic]); m < 200 || m > 650 {
		t.Errorf("altruistic mean lifetime = %.0f days, want ~376", m)
	}
}

func TestSiteEconomicsShape(t *testing.T) {
	w := genWorld(t, 1.0)
	var portalIncome, portalVisits []float64
	for _, p := range w.Publishers {
		if p.Class == TopPortal {
			portalIncome = append(portalIncome, p.Site.DailyIncomeUSD)
			portalVisits = append(portalVisits, p.Site.DailyVisits)
		}
	}
	sort.Float64s(portalIncome)
	sort.Float64s(portalVisits)
	medIncome := portalIncome[len(portalIncome)/2]
	medVisits := portalVisits[len(portalVisits)/2]
	// Paper Table 5: median income ~$55/day, median visits ~21k/day.
	if medIncome < 15 || medIncome > 250 {
		t.Errorf("portal median income = %.0f, want tens of dollars", medIncome)
	}
	if medVisits < 5000 || medVisits > 80000 {
		t.Errorf("portal median visits = %.0f, want ~21k", medVisits)
	}
	// Value is a few hundred times daily income.
	for _, p := range w.Publishers {
		if p.Site == nil {
			continue
		}
		ratio := p.Site.ValueUSD / p.Site.DailyIncomeUSD
		if ratio < 300 || ratio > 1000 {
			t.Errorf("value/income ratio = %.0f out of range", ratio)
		}
	}
}

func TestSpanishPortalShare(t *testing.T) {
	w := genWorld(t, 1.0)
	langSpecific, spanish, portals := 0, 0, 0
	for _, p := range w.Publishers {
		if p.Class != TopPortal {
			continue
		}
		portals++
		if p.Site.Language != "" {
			langSpecific++
			if p.Site.Language == "es" {
				spanish++
			}
		}
	}
	lf := float64(langSpecific) / float64(portals)
	if lf < 0.2 || lf > 0.6 {
		t.Errorf("language-specific portal share = %.2f, want ~0.40", lf)
	}
	if langSpecific > 0 {
		sf := float64(spanish) / float64(langSpecific)
		if sf < 0.4 || sf > 0.9 {
			t.Errorf("spanish share of language portals = %.2f, want ~0.66", sf)
		}
	}
}

func TestActiveIPRotation(t *testing.T) {
	w := genWorld(t, 0.05)
	for _, p := range w.Publishers {
		ip0 := p.ActiveIP(0)
		if !ip0.IsValid() {
			t.Fatalf("publisher %d has no valid IP", p.ID)
		}
		if p.IPPolicy == IPStatic {
			if got := p.ActiveIP(100 * 24 * time.Hour); got != ip0 {
				t.Fatalf("static publisher rotated IPs")
			}
			continue
		}
		if len(p.IPs) > 1 {
			seen := map[string]bool{}
			for d := time.Duration(0); d < 40*24*time.Hour; d += 6 * time.Hour {
				seen[p.ActiveIP(d).String()] = true
			}
			if len(seen) < 2 {
				t.Fatalf("publisher %d (policy %v, %d IPs) never rotated",
					p.ID, p.IPPolicy, len(p.IPs))
			}
		}
	}
}

func TestTorrentsSortedAndInWindow(t *testing.T) {
	w := genWorld(t, 0.05)
	end := w.Start.Add(time.Duration(CampaignDays) * 24 * time.Hour)
	for i, tor := range w.Torrents {
		if tor.ID != i {
			t.Fatalf("torrent %d has ID %d", i, tor.ID)
		}
		if tor.Published.Before(w.Start) || tor.Published.After(end) {
			t.Fatalf("torrent published outside campaign: %v", tor.Published)
		}
		if i > 0 && tor.Published.Before(w.Torrents[i-1].Published) {
			t.Fatalf("torrents not sorted at %d", i)
		}
	}
}

func TestHostedTopConsumeNothing(t *testing.T) {
	w := genWorld(t, 0.3)
	db, _ := geoip.DefaultDB()
	for _, p := range w.Publishers {
		if !p.Class.IsTop() {
			continue
		}
		if isp := db.ISPByName(p.ISP); isp != nil && isp.Type == geoip.Hosting {
			if p.ConsumeRate != 0 {
				t.Fatalf("hosted top publisher %v consumes content", p.Usernames)
			}
		}
	}
}

func TestGenerateRejectsBadParams(t *testing.T) {
	if _, err := Generate(DefaultParams(0.1), nil); err == nil {
		t.Error("nil DB accepted")
	}
}

func TestExpectedDownloadsMonotone(t *testing.T) {
	tor := &Torrent{Lambda0: 100, TauDays: 5}
	prev := 0.0
	for d := 1; d <= 40; d++ {
		v := tor.ExpectedDownloads(time.Duration(d) * 24 * time.Hour)
		if v < prev {
			t.Fatalf("ExpectedDownloads not monotone at day %d", d)
		}
		prev = v
	}
	// Asymptote is λ0·τ.
	if got := tor.ExpectedDownloads(1000 * 24 * time.Hour); math.Abs(got-500) > 1 {
		t.Fatalf("asymptote = %v, want 500", got)
	}
}

func TestClassStringerAndPredicates(t *testing.T) {
	if !FakeAntipiracy.IsFake() || !FakeMalware.IsFake() || Regular.IsFake() {
		t.Error("IsFake wrong")
	}
	if !TopPortal.IsProfit() || !TopWeb.IsProfit() || TopAltruistic.IsProfit() {
		t.Error("IsProfit wrong")
	}
	if !TopAltruistic.IsTop() || Regular.IsTop() || FakeMalware.IsTop() {
		t.Error("IsTop wrong")
	}
	for c := Regular; c <= TopAltruistic; c++ {
		if strings.HasPrefix(c.String(), "Class(") {
			t.Errorf("missing String for %d", int(c))
		}
	}
	for _, cat := range Categories() {
		if strings.HasPrefix(cat.String(), "Category(") {
			t.Errorf("missing String for category %d", int(cat))
		}
	}
}

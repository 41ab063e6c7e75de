package population

import (
	"errors"
	"fmt"
	"math"
	"net/netip"
	"sort"
	"time"

	"btpub/internal/geoip"
	"btpub/internal/rng"
)

func mathExp(x float64) float64 { return math.Exp(x) }

// CampaignDays is the length of the pb10 campaign the world spans.
const CampaignDays = 30

// The pb10 calibration: world size, class shares and entity counts.
const (
	// totalTorrents at Scale = 1.0 (pb10 observed 38.4K torrents).
	totalTorrents = 38400

	// Class shares of published content (the remainder goes to regular
	// publishers). Calibrated to Sections 3.3 and 5.1.
	fakeContentShare     = 0.30
	portalContentShare   = 0.18
	webContentShare      = 0.08
	altruistContentShare = 0.115

	// Entity counts at Scale = 1.0.
	fakeEntities  = 20   // agencies/malware operations
	portalCount   = 22   // top portal publishers
	webCount      = 20   // top web publishers
	altruistCount = 44   // top altruistic publishers
	regularCount  = 2900 // regular publishers
	fakeUsernames = 1030 // across all fake entities

	// ovhShareOfHosted is the fraction of hosted top publishers at OVH
	// (paper: >50 %).
	ovhShareOfHosted = 0.55
)

// hostedTopShare is the fraction of top publishers on hosting providers
// (paper: 42 %). It is a var, not a const: drawTopIPPlan subtracts 0.34
// from it, and the exact constant arithmetic (0.08) differs from the
// float64 runtime result (0.07999999999999996) the calibrated worlds
// were generated with.
var hostedTopShare = 0.42

// Params are the generative knobs callers vary. DefaultParams fills in
// the pb10 values; Scale shrinks the universe proportionally for tests
// and benches.
type Params struct {
	Seed  uint64
	Scale float64 // 1.0 = full pb10 size

	// MeanDownloads is the target mean number of downloader arrivals per
	// torrent over the campaign (sets absolute swarm sizes; the paper's
	// pb10 implies ~700, which is expensive — tests use less).
	MeanDownloads float64

	// Scenarios switches on adversarial publisher behaviour profiles
	// (zero = the cooperative base world). Scenario draws come from their
	// own derived streams, so the base world is unchanged when a profile
	// is off.
	Scenarios Scenario
}

// DefaultParams returns the pb10-calibrated parameter set at the given
// scale (clamped to a small minimum so every class stays populated).
func DefaultParams(scale float64) Params {
	if scale <= 0 {
		scale = 0.01
	}
	return Params{
		Seed:          1007_2327, // arXiv id of the paper
		Scale:         scale,
		MeanDownloads: 140,
	}
}

func scaled(n int, scale float64, min int) int {
	v := int(math.Round(float64(n) * scale))
	if v < min {
		v = min
	}
	return v
}

// classPopularity holds the per-class arrival-rate calibration. λ0 for a
// torrent is MeanDownloads-relative:
//
//	λ0 = D · base · publisherFactor · torrentFactor   [arrivals/day]
//
// with log-normal publisher and torrent factors, chosen to satisfy both the
// share constraints (fake 25 % of downloads from 30 % of content; top 50 %
// from 37 %) and the median constraints of Figure 3 (top ≈ 7× All, fake
// lowest).
type classPopularity struct {
	base     float64 // median λ0 as a fraction of MeanDownloads per day
	pubSigma float64 // publisher-level log-normal sigma
	torSigma float64 // torrent-level log-normal sigma
	tauLo    float64 // interest decay constant range (days)
	tauHi    float64
}

var popularityByClass = map[Class]classPopularity{
	Regular:        {base: 0.035, pubSigma: 1.3, torSigma: 1.3, tauLo: 3, tauHi: 7},
	FakeAntipiracy: {base: 0.700, pubSigma: 0, torSigma: 0.9, tauLo: 4, tauHi: 8},
	FakeMalware:    {base: 0.800, pubSigma: 0, torSigma: 0.9, tauLo: 4, tauHi: 8},
	TopPortal:      {base: 0.117, pubSigma: 0.45, torSigma: 0.65, tauLo: 5, tauHi: 9},
	TopWeb:         {base: 0.125, pubSigma: 0.45, torSigma: 0.65, tauLo: 5, tauHi: 9},
	TopAltruistic:  {base: 0.155, pubSigma: 0.50, torSigma: 0.70, tauLo: 5, tauHi: 9},
}

// Fake-username heat model: a deterministic minority of a fake entity's
// throwaway accounts run "hot" campaigns (fresh-blockbuster impersonations
// that soak up most of the fake downloads); the rest stay obscure. This is
// what reconciles the paper's two observations about fakes: they gather
// 25 % of all downloads, yet the median fake publisher is the least popular
// group in Figure 3.
const (
	fakeHotUserFraction = 0.15
	fakeHotFactorLo     = 4.3
	fakeHotFactorHi     = 9.3
	fakeColdFactorLo    = 0.08
	fakeColdFactorHi    = 0.28
)

// hpPopularityBoost multiplies λ0 for top publishers on hosting providers
// (Figure 3: Top-HP ≈ 1.5× Top-CI in median popularity).
const hpPopularityBoost = 1.40

// ciPopularityPenalty is the counterpart for commercial-ISP top publishers.
const ciPopularityPenalty = 0.92

// catMix returns the content-category weights for a class.
func catMix(c Class, hosted bool) [numCategories]float64 {
	var w [numCategories]float64
	set := func(m Category, v float64) { w[m] = v }
	switch c {
	case FakeAntipiracy:
		set(Movies, 0.55)
		set(TVShows, 0.20)
		set(Apps, 0.10)
		set(Games, 0.08)
		set(Music, 0.05)
		set(Other, 0.02)
	case FakeMalware:
		set(Movies, 0.30)
		set(TVShows, 0.10)
		set(Apps, 0.40)
		set(Games, 0.12)
		set(Porn, 0.06)
		set(Other, 0.02)
	case TopPortal:
		set(Movies, 0.30)
		set(TVShows, 0.22)
		set(Music, 0.15)
		set(Apps, 0.10)
		set(Games, 0.08)
		set(Porn, 0.05)
		set(Books, 0.04)
		set(Other, 0.06)
	case TopWeb:
		set(Porn, 0.70)
		set(Movies, 0.08)
		set(Music, 0.06)
		set(Apps, 0.05)
		set(Books, 0.05)
		set(TVShows, 0.03)
		set(Other, 0.03)
	case TopAltruistic:
		set(Music, 0.34)
		set(Books, 0.24)
		set(Movies, 0.10)
		set(TVShows, 0.08)
		set(Apps, 0.08)
		set(Games, 0.04)
		set(Porn, 0.02)
		set(Other, 0.10)
	default: // Regular
		set(Movies, 0.20)
		set(TVShows, 0.13)
		set(Porn, 0.07)
		set(Music, 0.18)
		set(Apps, 0.10)
		set(Games, 0.08)
		set(Books, 0.09)
		set(Other, 0.15)
	}
	if hosted && (c == TopPortal || c == TopAltruistic) {
		// Hosted top publishers skew further toward video (Figure 2, pb10).
		w[Movies] *= 1.5
		w[TVShows] *= 1.4
	}
	return w
}

// Generate builds a World from the parameters against the given ISP
// database. The same (Params, DB) always yields the identical World.
func Generate(p Params, db *geoip.DB) (*World, error) {
	if db == nil {
		return nil, errors.New("population: nil geoip DB")
	}
	if p.Scale <= 0 {
		return nil, fmt.Errorf("population: Scale = %v", p.Scale)
	}

	root := rng.New(p.Seed, "population")
	w := &World{Params: p, Start: campaignStart}

	// Fake entity count preserves the per-entity publishing rate (~19/day,
	// the invariant behind the paper's ~11 uploads per throwaway account)
	// rather than the entity headcount, so the fake seeding signature
	// survives down-scaling.
	fakePerEntity := float64(totalTorrents) * fakeContentShare /
		float64(fakeEntities) // ≈ 576 at the paper's numbers
	nFake := int(math.Round(fakeContentShare * float64(totalTorrents) * p.Scale / fakePerEntity))
	if nFake < 1 {
		nFake = 1
	}
	nPortal := scaled(portalCount, p.Scale, 3)
	nWeb := scaled(webCount, p.Scale, 3)
	nAlt := scaled(altruistCount, p.Scale, 4)
	nReg := scaled(regularCount, p.Scale, 40)
	nFakeUsers := scaled(fakeUsernames, p.Scale, 30)

	total := int(math.Round(float64(totalTorrents) * p.Scale))
	if total < 100 {
		total = 100
	}
	counts := map[Class]int{
		FakeAntipiracy: 0, // filled below with FakeMalware
		TopPortal:      int(math.Round(portalContentShare * float64(total))),
		TopWeb:         int(math.Round(webContentShare * float64(total))),
		TopAltruistic:  int(math.Round(altruistContentShare * float64(total))),
	}
	fakeTotal := int(math.Round(fakeContentShare * float64(total)))
	regTotal := total - fakeTotal - counts[TopPortal] - counts[TopWeb] - counts[TopAltruistic]

	// ---------------------------------------------------------------
	// Publishers
	// ---------------------------------------------------------------
	var err error
	gen := &generator{p: p, db: db, w: w, root: root}

	gen.makeFakeEntities(nFake, nFakeUsers, fakeTotal)
	gen.makeTopPublishers(TopPortal, nPortal, counts[TopPortal])
	gen.makeTopPublishers(TopWeb, nWeb, counts[TopWeb])
	gen.makeTopPublishers(TopAltruistic, nAlt, counts[TopAltruistic])
	gen.makeRegularPublishers(nReg, regTotal)
	gen.applyScenarios(total)
	if gen.err != nil {
		return nil, gen.err
	}

	// ---------------------------------------------------------------
	// Torrents
	// ---------------------------------------------------------------
	if err = gen.makeTorrents(); err != nil {
		return nil, err
	}
	sort.Slice(w.Torrents, func(i, j int) bool {
		return w.Torrents[i].Published.Before(w.Torrents[j].Published)
	})
	for i, t := range w.Torrents {
		t.ID = i
	}
	return w, nil
}

// campaignStart anchors virtual time (the paper's pb10 start date).
var campaignStart = time.Date(2010, time.April, 6, 0, 0, 0, 0, time.UTC)

type generator struct {
	p    Params
	db   *geoip.DB
	w    *World
	root *rng.Stream
	err  error
	// planned torrent count per publisher id
	plan map[int]int
	// hostedSeq counts hosted top publishers for proportional ISP rotation
	hostedSeq int
}

func (g *generator) fail(err error) {
	if g.err == nil {
		g.err = err
	}
}

func (g *generator) addPublisher(pub *Publisher, torrents int) {
	pub.ID = len(g.w.Publishers)
	g.w.Publishers = append(g.w.Publishers, pub)
	if g.plan == nil {
		g.plan = map[int]int{}
	}
	g.plan[pub.ID] = torrents
	if torrents > 0 {
		pub.PubRate = float64(torrents) / float64(CampaignDays)
	}
}

// splitTotal distributes total over n entities with the given weight draws.
func splitTotal(s *rng.Stream, n, total int, weight func(*rng.Stream) float64) []int {
	weights := make([]float64, n)
	sum := 0.0
	for i := range weights {
		weights[i] = weight(s)
		sum += weights[i]
	}
	out := make([]int, n)
	assigned := 0
	for i := range weights {
		out[i] = int(math.Floor(weights[i] / sum * float64(total)))
		assigned += out[i]
	}
	for i := 0; assigned < total; i++ {
		out[i%n]++
		assigned++
	}
	return out
}

func (g *generator) makeFakeEntities(n, usernames, totalTorrents int) {
	s := g.root.Derive("fake")
	perEntity := splitTotal(s, n, totalTorrents, func(s *rng.Stream) float64 {
		return s.LogNormalMedian(1, 0.5)
	})
	userCounts := splitTotal(s, n, usernames, func(s *rng.Stream) float64 {
		return s.LogNormalMedian(1, 0.4)
	})
	userID := 0
	for i := 0; i < n; i++ {
		// Deterministic 60/40 antipiracy/malware mix so both kinds exist at
		// every scale.
		class := FakeAntipiracy
		if i%5 >= 3 {
			class = FakeMalware
		}
		isp := rng.Pick(s, geoip.FakeHostingProviders())
		nIPs := 2 + s.IntN(3)
		ips := g.drawIPs(s, isp, nIPs, 0.8)
		names := make([]string, 0, userCounts[i])
		for j := 0; j < userCounts[i]; j++ {
			name, _ := makeFakeUsername(s, userID)
			userID++
			names = append(names, name)
		}
		if len(names) == 0 {
			name, _ := makeFakeUsername(s, userID)
			userID++
			names = append(names, name)
		}
		pub := &Publisher{
			Class:     class,
			Usernames: names,
			ISP:       isp,
			IPs:       ips,
			IPPolicy:  IPPool,
			// Fake servers rotate slowly; they are racked boxes.
			RotatePeriod: time.Duration(s.Uniform(72, 168)) * time.Hour,
			// Accounts are freshly created or freshly hacked.
			AccountCreated: campaignStart.Add(-time.Duration(s.Uniform(0, 60*24)) * time.Hour),
			Seed: SeedPolicy{
				MinSeed:     time.Duration(s.Uniform(18, 48)) * time.Hour,
				MaxParallel: 18 + s.IntN(25),
				DailyOnline: 24 * time.Hour,
			},
			ConsumeRate: 0,
			CatWeights:  catMix(class, true),
		}
		ensureSeedCapacity(pub, perEntity[i], CampaignDays)
		g.addPublisher(pub, perEntity[i])
	}
}

// topIPPlan reproduces the Section 3.3 username↔IP taxonomy.
type topIPPlan struct {
	hosted bool
	policy IPPolicy
	nIPs   int
}

func (g *generator) drawTopIPPlan(s *rng.Stream) topIPPlan {
	// Paper: 25 % single IP, 34 % hosting pool (5.7 IPs avg), 24 % dynamic
	// single commercial ISP (13.8 avg), 16 % multi-homed (7.7 avg). Hosting
	// total must come out at hostedTopShare (42 %), so the single-IP cases
	// split between hosting and commercial.
	u := s.Float64()
	switch {
	case u < 0.34:
		return topIPPlan{hosted: true, policy: IPPool, nIPs: 3 + s.IntN(6)} // mean ~5.5
	case u < 0.34+0.24:
		return topIPPlan{hosted: false, policy: IPDynamic, nIPs: 9 + s.IntN(10)} // mean ~13.5
	case u < 0.34+0.24+0.16:
		return topIPPlan{hosted: false, policy: IPMultiHome, nIPs: 5 + s.IntN(6)} // mean ~7.5
	default:
		// 26 % single-IP; hosting share tops up to hostedTopShare.
		hostedNeeded := hostedTopShare - 0.34
		hosted := s.Bool(hostedNeeded / 0.26)
		return topIPPlan{hosted: hosted, policy: IPStatic, nIPs: 1}
	}
}

// pickHostingISP assigns hosted publishers to providers with deterministic
// proportions (≈55 % OVH, the paper's concentration), so OVH's dominance
// survives even tiny scaled-down populations.
func (g *generator) pickHostingISP(s *rng.Stream) string {
	seq := g.hostedSeq
	g.hostedSeq++
	if float64(seq%9) < ovhShareOfHosted*9 {
		return geoip.OVH
	}
	others := []string{geoip.Keyweb, geoip.NetDirect, geoip.NOC, geoip.SoftLayer}
	return others[(seq/9+seq)%len(others)]
}

var commercialForTop = []string{
	geoip.Comcast, geoip.RoadRunner, geoip.Virgin, geoip.SBC, geoip.Verizon,
	geoip.TelecomIT, geoip.Telefonica, geoip.Jazztel, geoip.OCN, geoip.ComcorTV,
}

func (g *generator) drawIPs(s *rng.Stream, isp string, n int, concentrate float64) []netip.Addr {
	ips := make([]netip.Addr, 0, n)
	seen := map[netip.Addr]bool{}
	for len(ips) < n {
		addr, err := g.db.RandomIP(s, isp, concentrate)
		if err != nil {
			g.fail(err)
			return ips
		}
		if seen[addr] {
			continue
		}
		seen[addr] = true
		ips = append(ips, addr)
	}
	return ips
}

// lifetimeDays draws the Table 4 account-lifetime distribution for a class.
func lifetimeDays(s *rng.Stream, c Class) float64 {
	// Log-normal clipped to the paper's min/max envelopes; medians tuned so
	// the class means land near 466/459/376 days.
	switch c {
	case TopPortal:
		return clip(s.LogNormalMedian(330, 0.9), 63, 1816)
	case TopWeb:
		return clip(s.LogNormalMedian(320, 0.95), 50, 1989)
	default: // TopAltruistic
		return clip(s.LogNormalMedian(250, 1.1), 10, 1899)
	}
}

func clip(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func (g *generator) makeTopPublishers(class Class, n, totalTorrents int) {
	s := g.root.Derive("top-" + class.String())
	perPub := splitTotal(s, n, totalTorrents, func(s *rng.Stream) float64 {
		return s.LogNormalMedian(1, 0.7)
	})
	for i := 0; i < n; i++ {
		plan := g.drawTopIPPlan(s)
		var isp string
		var extra []string
		var ips []netip.Addr
		if plan.hosted {
			isp = g.pickHostingISP(s)
			ips = g.drawIPs(s, isp, plan.nIPs, 0.7)
		} else {
			isp = rng.Pick(s, commercialForTop)
			if plan.policy == IPMultiHome {
				// Two or three ISPs; split the pool across them.
				extraN := 1 + s.IntN(2)
				for len(extra) < extraN {
					cand := rng.Pick(s, commercialForTop)
					if cand != isp {
						extra = append(extra, cand)
					}
				}
				ips = g.drawIPs(s, isp, (plan.nIPs+1)/2, 0)
				for j, e := range extra {
					share := plan.nIPs / (len(extra) + 1)
					if j == len(extra)-1 {
						share = plan.nIPs - len(ips)
					}
					if share > 0 {
						ips = append(ips, g.drawIPs(s, e, share, 0)...)
					}
				}
			} else {
				ips = g.drawIPs(s, isp, plan.nIPs, 0.4)
			}
		}

		username := makeTopUsername(s, len(g.w.Publishers))
		lifetime := lifetimeDays(s, class)
		created := campaignStart.Add(-time.Duration(lifetime*24) * time.Hour)

		pub := &Publisher{
			Class:          class,
			Usernames:      []string{username},
			ISP:            isp,
			ExtraISPs:      extra,
			IPs:            ips,
			IPPolicy:       plan.policy,
			RotatePeriod:   rotatePeriod(s, plan.policy),
			AccountCreated: created,
			CatWeights:     catMix(class, plan.hosted),
		}
		// Serious publishers configure reachable seed boxes; a minority of
		// the commercial-ISP ones sit behind home NATs.
		if !plan.hosted {
			pub.NATed = s.Bool(0.25)
		}

		// Seeding behaviour (Section 4.3): hosted publishers are online
		// around the clock and keep seeding longer.
		if plan.hosted {
			pub.Seed = SeedPolicy{
				MinSeed:       time.Duration(s.Uniform(10, 30)) * time.Hour,
				TargetSeeders: 4 + s.IntN(5),
				MaxParallel:   3 + s.IntN(2),
				DailyOnline:   24 * time.Hour,
			}
			pub.ConsumeRate = 0 // hosted seed boxes do not download
		} else {
			pub.Seed = SeedPolicy{
				MinSeed:       time.Duration(s.Uniform(3, 14)) * time.Hour,
				TargetSeeders: 2 + s.IntN(4),
				MaxParallel:   2 + s.IntN(3),
				DailyOnline:   time.Duration(s.Uniform(8, 18)) * time.Hour,
				OnlineStart:   10 + s.IntN(8),
			}
			pub.ConsumeRate = clip(s.Exp(0.05), 0, 0.5)
		}
		if class == TopAltruistic {
			// Less resourced: fewer parallel slots, and they leave as soon
			// as anyone else can take over.
			if pub.Seed.MaxParallel > 3 {
				pub.Seed.MaxParallel = 3
			}
			pub.Seed.TargetSeeders = 1 + s.IntN(2)
		}

		// Business profile and promoted site (Section 5.1).
		if class == TopPortal || class == TopWeb {
			pub.Site = g.makeSite(s, username, class, perPub[i])
			pub.Promo = drawPromoChannels(s, class)
		}

		// Historical activity for Table 4: the account has been publishing
		// at a similar rate since creation.
		rate := float64(perPub[i]) / float64(CampaignDays)
		hist := rate * (lifetime - float64(CampaignDays)) * s.Uniform(0.6, 1.1)
		if hist > 0 {
			pub.HistoricalTorrents = int(hist)
		}

		ensureSeedCapacity(pub, perPub[i], CampaignDays)
		g.addPublisher(pub, perPub[i])
	}
}

// ensureSeedCapacity grows a publisher's parallel-seeding slots so that its
// publishing rate is sustainable: every upload must get its initial seeder
// promptly (a saturated publisher would litter the portal with seederless
// newborn swarms far beyond the fraction the paper observed). The hold time
// per torrent is approximated from the seeding policy.
func ensureSeedCapacity(pub *Publisher, torrents, days int) {
	if torrents <= 0 || days <= 0 {
		return
	}
	rate := float64(torrents) / float64(days)
	holdHours := pub.Seed.MinSeed.Hours() * 1.6 // target-seeder wait slack
	if holdHours < 2 {
		holdHours = 2
	}
	online := pub.Seed.DailyOnline.Hours()
	if online <= 0 || online > 24 {
		online = 24
	}
	// Slots needed so that rate × hold fits into the daily online budget.
	needed := int(rate*holdHours/online*1.25) + 1
	if needed > pub.Seed.MaxParallel {
		pub.Seed.MaxParallel = needed
	}
}

func rotatePeriod(s *rng.Stream, p IPPolicy) time.Duration {
	switch p {
	case IPDynamic:
		// Commercial ISPs reassign every ~2 days on average.
		return time.Duration(s.Uniform(36, 72)) * time.Hour
	case IPPool:
		return time.Duration(s.Uniform(72, 168)) * time.Hour
	case IPMultiHome:
		// Home vs work alternation.
		return time.Duration(s.Uniform(12, 48)) * time.Hour
	default:
		return 0
	}
}

func drawPromoChannels(s *rng.Stream, class Class) []PromoChannel {
	// Paper (Section 5.1): the textbox is the dominant channel; portal
	// owners mix in the other two.
	out := []PromoChannel{PromoTextbox}
	if class == TopPortal {
		if s.Bool(0.25) {
			out = append(out, PromoFilename)
		}
		if s.Bool(0.25) {
			out = append(out, PromoBundledFile)
		}
	} else if s.Bool(0.15) {
		out = append(out, PromoFilename)
	}
	return out
}

// siteEconomics ground-truth model: visits have an organic component plus a
// conversion of the publisher's BitTorrent audience; income is
// advertisement RPM on visits (plus donations/VIP for private portals);
// value is a multiple of daily income.
func (g *generator) makeSite(s *rng.Stream, username string, class Class, campaignTorrents int) *Site {
	b := BusinessPrivatePortal
	lang := ""
	if class == TopWeb {
		u := s.Float64()
		switch {
		case u < 0.70:
			b = BusinessImageHosting
		case u < 0.90:
			b = BusinessForum
		default:
			b = BusinessReligious
		}
	} else {
		// 40 % of portal publishers target one language; 66 % of those are
		// Spanish (Section 5.1).
		if s.Bool(0.40) {
			if s.Bool(0.66) {
				lang = "es"
			} else {
				lang = rng.Pick(s, []string{"it", "nl", "sv"})
			}
		}
	}
	// Expected daily downloader audience this publisher attracts: its
	// publishing rate times the (above-average) popularity of its torrents.
	audience := float64(campaignTorrents) / float64(CampaignDays) * g.p.MeanDownloads * 1.35
	organic := s.LogNormalMedian(15000, 1.8)
	visits := organic + s.Uniform(0.10, 0.25)*audience
	rpm := s.Uniform(1.8, 3.4) // USD per 1000 visits
	income := visits / 1000 * rpm
	if b == BusinessPrivatePortal {
		// Donations and VIP fees add a visit-correlated stream.
		income += visits / 1000 * s.Uniform(0.3, 1.0)
	}
	value := income * s.Uniform(450, 800)
	return &Site{
		URL:            makeSiteURL(s, username, b),
		Business:       b,
		DailyVisits:    visits,
		DailyIncomeUSD: income,
		ValueUSD:       value,
		Language:       lang,
	}
}

func (g *generator) makeRegularPublishers(n, totalTorrents int) {
	s := g.root.Derive("regular")
	perPub := splitTotal(s, n, totalTorrents, func(s *rng.Stream) float64 {
		// Heavy-tailed contribution: most publish one or two items, a few
		// publish dozens — but ordinary users never rival the top-100, so
		// the tail is truncated (Figure 1's curve bends at the 3 % cut).
		return clip(s.Pareto(1, 1.4), 1, 30)
	})
	for i := 0; i < n; i++ {
		isp := g.pickRegularISP(s)
		ips := g.drawIPs(s, isp, 1+s.IntN(2), 0)
		policy := IPStatic
		if len(ips) > 1 {
			policy = IPDynamic
		}
		pub := &Publisher{
			Class:          Regular,
			Usernames:      []string{makeRegularUsername(s, len(g.w.Publishers))},
			ISP:            isp,
			IPs:            ips,
			IPPolicy:       policy,
			NATed:          s.Bool(0.5), // home connections, often unreachable
			RotatePeriod:   time.Duration(s.Uniform(48, 120)) * time.Hour,
			AccountCreated: campaignStart.Add(-time.Duration(s.Uniform(1, 900)*24) * time.Hour),
			Seed: SeedPolicy{
				MinSeed:       time.Duration(s.Uniform(1, 6)) * time.Hour,
				TargetSeeders: 1 + s.IntN(2),
				MaxParallel:   1,
				DailyOnline:   time.Duration(s.Uniform(2, 10)) * time.Hour,
				OnlineStart:   16 + s.IntN(6),
			},
			ConsumeRate: clip(s.Exp(0.4), 0.02, 4),
			CatWeights:  catMix(Regular, false),
		}
		g.addPublisher(pub, perPub[i])
	}
}

func (g *generator) pickRegularISP(s *rng.Stream) string {
	// Mostly the long residential tail, with the named commercial ISPs
	// over-represented enough that Table 2 surfaces them. Comcast is the
	// largest access network and gets extra weight (the paper's Table 3
	// contrasts its wide, scattered feeder footprint against OVH).
	if s.Bool(0.45) {
		if s.Bool(0.25) {
			return geoip.Comcast
		}
		return rng.Pick(s, commercialForTop)
	}
	return geoip.GenericISPName(s.IntN(geoip.NumGenericISPs))
}

// ---------------------------------------------------------------------
// Torrent generation
// ---------------------------------------------------------------------

func (g *generator) makeTorrents() error {
	campaign := time.Duration(CampaignDays) * 24 * time.Hour
	for _, pub := range g.w.Publishers {
		count := g.plan[pub.ID]
		if count == 0 {
			continue
		}
		s := g.root.Derive(fmt.Sprintf("torrents-%d", pub.ID))
		pop := popularityByClass[pub.Class]
		pubFactor := s.LogNormalMedian(1, pop.pubSigma)
		hosted := g.isHosted(pub)
		boost := 1.0
		if pub.Class.IsTop() {
			if hosted {
				boost = hpPopularityBoost
			} else {
				boost = ciPopularityPenalty
			}
		}
		weights := pub.CatWeights[:]
		// Publication window: the whole campaign, unless the publisher
		// runs a constrained burst (the fake-blitz scenario).
		offset, span := time.Duration(0), campaign
		if pub.PublishSpan > 0 {
			offset, span = pub.PublishOffset, pub.PublishSpan
		}
		var mine []*Torrent
		for i := 0; i < count; i++ {
			cat := Category(s.WeightedChoice(weights))
			lang := ""
			if pub.Site != nil {
				lang = pub.Site.Language
			}
			isFake := pub.Class.IsFake()
			title, file := makeTitle(s, cat, lang, isFake)
			tor := &Torrent{
				Title:       title,
				FileName:    file,
				Category:    cat,
				SizeBytes:   sizeFor(s, cat),
				Language:    lang,
				PublisherID: pub.ID,
				Username:    pub.Usernames[0],
				Published:   g.w.Start.Add(offset + time.Duration(s.Float64()*float64(span))),
				Fake:        isFake,
				Malware:     pub.Class == FakeMalware,
				Copyrighted: copyrighted(s, cat),
				Lambda0: g.p.MeanDownloads * pop.base * boost * pubFactor *
					s.LogNormalMedian(1, pop.torSigma),
				TauDays:     s.Uniform(pop.tauLo, pop.tauHi),
				ContentSeed: s.Uint64(),
			}
			if isFake {
				// Moderation detection delay: median ~14 h, heavy upper
				// tail (some fakes survive days and soak up downloads).
				h := clip(s.LogNormalMedian(14, 1.7), 1, 30*24)
				tor.RemovalAfter = time.Duration(h * float64(time.Hour))
			}
			g.applyPromo(s, pub, tor)
			g.w.Torrents = append(g.w.Torrents, tor)
			mine = append(mine, tor)
		}
		switch {
		case pub.StickyAccount:
			g.planStickyPurge(s, pub, mine)
		case pub.Class.IsFake():
			g.assignFakeUsernames(s, pub, mine)
		case len(pub.Usernames) > 1:
			assignAliasUsernames(pub, mine)
		}
	}
	return nil
}

// assignFakeUsernames walks a fake entity's uploads in time order, rotating
// to a fresh throwaway account as soon as the portal burns the current one
// (the moderation that removes a decoy also suspends its account). The
// entity's username therefore survives roughly pubRate × detection-delay
// uploads — with the paper's numbers, ~19/day × ~0.6 days ≈ 11 torrents per
// username, which reproduces the 1030-usernames observation of §3.3. The
// per-username popularity factor implements the hot/cold heat model.
func (g *generator) assignFakeUsernames(s *rng.Stream, pub *Publisher, mine []*Torrent) {
	sort.Slice(mine, func(i, j int) bool { return mine[i].Published.Before(mine[j].Published) })
	pool := append([]string(nil), pub.Usernames...)
	next := 0
	extraID := pub.ID*100000 + 50000
	takeUsername := func() string {
		if next < len(pool) {
			u := pool[next]
			next++
			return u
		}
		u, _ := makeFakeUsername(s, extraID)
		extraID++
		pool = append(pool, u)
		next++
		return u
	}
	var current string
	var burnAt time.Time
	userIdx := -1
	var factor float64
	for _, tor := range mine {
		if current == "" || !tor.Published.Add(time.Minute).Before(burnAt) {
			current = takeUsername()
			userIdx++
			// Account-level detection: the whole account (and all its live
			// decoys) is taken down one detection-delay after it starts
			// uploading. Mean ~14.5 h (median 8 h, log-normal tail), which
			// reproduces the paper's ~11 uploads per fake username at a
			// ~19/day entity publishing rate.
			delay := clip(s.LogNormalMedian(8, 1.1), 1, 10*24)
			burnAt = tor.Published.Add(time.Duration(delay * float64(time.Hour)))
			// Every ~7th account runs a hot impersonation campaign.
			if userIdx%7 == 0 {
				factor = s.Uniform(fakeHotFactorLo, fakeHotFactorHi)
			} else {
				factor = s.Uniform(fakeColdFactorLo, fakeColdFactorHi)
			}
		}
		tor.Username = current
		tor.Lambda0 *= factor
		tor.RemovalAfter = burnAt.Sub(tor.Published)
		if tor.RemovalAfter < 10*time.Minute {
			tor.RemovalAfter = 10 * time.Minute
		}
	}
	pub.Usernames = pool[:next]
}

func (g *generator) isHosted(pub *Publisher) bool {
	isp := g.db.ISPByName(pub.ISP)
	return isp != nil && isp.Type == geoip.Hosting
}

func copyrighted(s *rng.Stream, cat Category) bool {
	switch cat {
	case Movies, TVShows, Games:
		return s.Bool(0.95)
	case Music, Apps:
		return s.Bool(0.85)
	case Porn:
		return s.Bool(0.6)
	case Books:
		return s.Bool(0.5)
	default:
		return s.Bool(0.3)
	}
}

func (g *generator) applyPromo(s *rng.Stream, pub *Publisher, tor *Torrent) {
	switch {
	case pub.Site != nil:
		tor.PromoURL = pub.Site.URL
		// Every torrent carries the textbox URL; the optional channels are
		// applied per-torrent.
		tor.PromoChannel = PromoTextbox
		tor.Description = fmt.Sprintf(
			"%s\n\nBrought to you by %s — visit http://%s for more releases!",
			tor.Title, pub.Usernames[0], pub.Site.URL)
		for _, ch := range pub.Promo {
			switch ch {
			case PromoFilename:
				if s.Bool(0.8) {
					tor.FileName = promoFileName(tor.FileName, pub.Site.URL)
				}
			case PromoBundledFile:
				if s.Bool(0.8) {
					tor.BundledFiles = append(tor.BundledFiles,
						fmt.Sprintf("Visit %s.txt", pub.Site.URL))
				}
			}
		}
	case pub.Class == FakeAntipiracy:
		tor.Description = "Great quality, download now!"
	case pub.Class == FakeMalware:
		tor.Description = "You may need the special codec player to watch this release."
		tor.BundledFiles = append(tor.BundledFiles, "codec_installer.exe")
	case pub.Class == TopAltruistic:
		tor.Description = fmt.Sprintf(
			"%s\n\nDetailed notes and track list inside. Please seed after downloading — every bit helps keep this alive!",
			tor.Title)
	default:
		tor.Description = tor.Title
	}
}

func promoFileName(file, url string) string {
	// mois20-style: filename-divxatope.com.avi
	for i := len(file) - 1; i >= 0; i-- {
		if file[i] == '.' {
			return file[:i] + "-" + url + file[i:]
		}
	}
	return file + "-" + url
}

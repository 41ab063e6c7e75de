// Benchmarks regenerating every table and figure of the paper
// (experiments E1-E15). One shared campaign is crawled once; each bench
// then measures the cost of regenerating its artifact from the dataset, so
// `go test -bench=. -benchmem` doubles as the experiment runner.
package btpub

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"btpub/internal/analysis"
	"btpub/internal/bencode"
	"net/netip"

	"btpub/internal/campaign"
	"btpub/internal/geoip"
	"btpub/internal/metainfo"
	"btpub/internal/population"
	"btpub/internal/rng"
	"btpub/internal/sessions"
	"btpub/internal/swarm"
	"btpub/internal/tracker"
	"btpub/internal/webmon"
)

var (
	benchOnce sync.Once
	benchRes  *campaign.Result
	benchAn   *analysis.Analysis
	benchMon  *webmon.Directory
	benchErr  error
)

func benchWorld(b *testing.B) (*campaign.Result, *analysis.Analysis, *webmon.Directory) {
	benchOnce.Do(func() {
		benchRes, benchErr = campaign.Run(campaign.Spec{Scale: 0.02, MeanDownloads: 250, Seed: 5})
		if benchErr != nil {
			return
		}
		benchAn, benchErr = analysis.New(benchRes.Dataset, benchRes.DB, 0)
		if benchErr != nil {
			return
		}
		benchMon, benchErr = webmon.NewDirectory(benchRes.World, 1)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchRes, benchAn, benchMon
}

// BenchmarkTable1Datasets — E1: dataset description row.
func BenchmarkTable1Datasets(b *testing.B) {
	_, a, _ := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := a.Summary()
		if sum.DistinctIPs == 0 {
			b.Fatal("empty summary")
		}
	}
}

// BenchmarkFigure1Skewness — E2: contribution curve.
func BenchmarkFigure1Skewness(b *testing.B) {
	_, a, _ := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk := a.Skewness()
		if sk.TopShare3Pct <= 0 {
			b.Fatal("empty curve")
		}
	}
}

// BenchmarkTable2ISP — E3: publishers per ISP.
func BenchmarkTable2ISP(b *testing.B) {
	_, a, _ := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := a.ISPTable(10); len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkTable3OVHComcast — E4: feeder contrast.
func BenchmarkTable3OVHComcast(b *testing.B) {
	_, a, _ := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := a.ContrastISPs(geoip.OVH, geoip.Comcast)
		if len(rows) != 2 {
			b.Fatal("bad contrast")
		}
	}
}

// BenchmarkSection33CrossAnalysis — E5: username↔IP cross-analysis.
func BenchmarkSection33CrossAnalysis(b *testing.B) {
	_, a, _ := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ca := a.Facts.Cross(0)
		if ca.TopUsernames == 0 {
			b.Fatal("no usernames")
		}
	}
}

// BenchmarkFigure2ContentTypes — E6.
func BenchmarkFigure2ContentTypes(b *testing.B) {
	_, a, _ := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if types := a.ContentTypes(); len(types) == 0 {
			b.Fatal("no types")
		}
	}
}

// BenchmarkFigure3Popularity — E7.
func BenchmarkFigure3Popularity(b *testing.B) {
	_, a, _ := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pop := a.Popularity()
		if pop["Top"].N == 0 {
			b.Fatal("no popularity data")
		}
	}
}

// BenchmarkFigure4aSeedingTime — E8 (4h estimator).
func BenchmarkFigure4aSeedingTime(b *testing.B) {
	_, a, _ := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb := a.Seeding(0)
		if sb.AvgSeedTimeHours["Fake"].N == 0 {
			b.Fatal("no seeding data")
		}
	}
}

// BenchmarkFigure4bParallel — E9 (2h estimator ablation).
func BenchmarkFigure4bParallel(b *testing.B) {
	_, a, _ := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb := a.Seeding(2 * time.Hour)
		if sb.AvgParallel["Fake"].N == 0 {
			b.Fatal("no parallel data")
		}
	}
}

// BenchmarkFigure4cSession — E10 (6h estimator ablation).
func BenchmarkFigure4cSession(b *testing.B) {
	_, a, _ := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb := a.Seeding(6 * time.Hour)
		if sb.SessionHours["Top"].N == 0 {
			b.Fatal("no session data")
		}
	}
}

// BenchmarkSection51Business — E11.
func BenchmarkSection51Business(b *testing.B) {
	_, a, mon := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, sums, err := a.Business(mon); err != nil || len(sums) == 0 {
			b.Fatalf("business: %v", err)
		}
	}
}

// BenchmarkTable4Longitudinal — E12.
func BenchmarkTable4Longitudinal(b *testing.B) {
	_, a, mon := benchWorld(b)
	profiles, _, err := a.Business(mon)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.LongitudinalView(profiles); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5Income — E13.
func BenchmarkTable5Income(b *testing.B) {
	_, a, mon := benchWorld(b)
	profiles, _, err := a.Business(mon)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.IncomeView(profiles, mon); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSection6OVH — E14.
func BenchmarkSection6OVH(b *testing.B) {
	_, a, _ := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hi := a.HostingIncomeFor(geoip.OVH)
		_ = hi
	}
}

// BenchmarkAppendixAEstimator — E15: the session-detection model.
func BenchmarkAppendixAEstimator(b *testing.B) {
	est := sessions.Estimator{Gap: 4 * time.Hour}
	start := time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)
	sightings := make([]time.Time, 0, 200)
	for i := 0; i < 200; i++ {
		sightings = append(sightings, start.Add(time.Duration(i*17)*time.Minute))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sessions.QueriesForConfidence(50, 165, 0.99); err != nil {
			b.Fatal(err)
		}
		if ss := est.Stitch(sightings); len(ss) == 0 {
			b.Fatal("no sessions")
		}
	}
}

// ---------------------------------------------------------------------
// Campaign engine: the sharded run, cooperative and adversarial
// ---------------------------------------------------------------------

// benchCampaign runs the Scale 0.1 campaign sharded across every core
// per op and fails past ceiling allocs/op.
func benchCampaign(b *testing.B, scenarios population.Scenario, ceiling uint64) {
	b.Helper()
	m := meterAllocs(b, ceiling)
	for i := 0; i < b.N; i++ {
		res, err := campaign.Run(campaign.Spec{
			Scale: 0.1, MeanDownloads: 200, Seed: 11,
			Shards:    runtime.NumCPU(),
			Scenarios: scenarios,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Dataset.Torrents) == 0 || res.Dataset.NumObservations() == 0 {
			b.Fatal("empty campaign")
		}
	}
	m.check()
}

// BenchmarkCampaignParallel shards the campaign across every core. The
// merged dataset is byte-identical to a serial run's (the campaign
// determinism test enforces this), so the speedup is free; bench/
// reports it as campaign.shard_speedup.
//
// Before the columnar observation store + crawler/tracker/portal
// allocation work (PR 2) it sat at ~196.4M allocs/op; after, ~44.1M.
// The ceiling leaves ~35% headroom for noise and benign drift while
// still catching any real regression.
func BenchmarkCampaignParallel(b *testing.B) { benchCampaign(b, 0, 60_000_000) }

// BenchmarkCampaignAdversarial runs the sharded campaign with every
// adversarial publisher profile on (aliasing, IP churn, fake blitz,
// account purge) — the worst-case world for the moderation, username and
// identification paths. Its ceiling keeps the scenario engine from
// regressing the crawl hot paths: PR 4 measured ~45.8M allocs/op —
// barely above the cooperative world, because scenario worlds reuse the
// same crawl hot paths. The ceiling carries ~35% headroom.
func BenchmarkCampaignAdversarial(b *testing.B) {
	benchCampaign(b, population.AllScenarios, 62_000_000)
}

// ---------------------------------------------------------------------
// Substrate micro-benchmarks
// ---------------------------------------------------------------------

// BenchmarkBencodeTorrentRoundTrip measures .torrent encode+parse.
func BenchmarkBencodeTorrentRoundTrip(b *testing.B) {
	bt := metainfo.Builder{
		Name: "Some.Movie.2010.avi", Length: 700 << 20,
		Announce: "http://t/announce", Seed: 1,
	}
	tor, err := bt.Build()
	if err != nil {
		b.Fatal(err)
	}
	data, err := tor.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metainfo.Parse(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBencodeDecodeDict measures raw bencode decoding.
func BenchmarkBencodeDecodeDict(b *testing.B) {
	data, err := bencode.Marshal(map[string]interface{}(bencode.Dict{
		"interval": int64(900), "complete": int64(12), "incomplete": int64(34),
		"peers": string(make([]byte, 6*50)),
	}))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bencode.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrackerAnnounce measures one announce through the full tracker
// path (sampling + compact encoding + response parse).
func BenchmarkTrackerAnnounce(b *testing.B) {
	res, _, _ := benchWorld(b)
	entry := res.Eco.Portal.Recent(1)[0]
	trk, err := tracker.New(res.Eco, res.Eco.Clock().Now)
	if err != nil {
		b.Fatal(err)
	}
	req := &tracker.AnnounceRequest{InfoHash: entry.InfoHash, NumWant: 200}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := trk.Announce(req)
		if err != nil {
			b.Fatal(err)
		}
		body, err := tracker.EncodeAnnounceResponse(resp, true)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tracker.ParseAnnounceResponse(body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSwarmGeneration measures building a full swarm schedule.
func BenchmarkSwarmGeneration(b *testing.B) {
	pool := benchPool{}
	p := swarm.Params{
		Birth: time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC), Lambda0: 48,
		TauDays: 5, Horizon: 35 * 24 * time.Hour, ContentSizeBytes: 700 << 20,
		SeedProb: 0.5, MeanSeedHours: 6, AbortProb: 0.15,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw, err := swarm.New(p, rng.New(uint64(i), "bench"), pool, nil)
		if err != nil {
			b.Fatal(err)
		}
		_ = sw.TotalArrivals()
	}
}

type benchPool struct{ n uint32 }

func (p benchPool) DrawConsumer(s *rng.Stream) (netip.Addr, bool) {
	return netip.AddrFrom4([4]byte{10, byte(s.IntN(250)), byte(s.IntN(250)), byte(1 + s.IntN(250))}), s.Bool(0.3)
}

// BenchmarkWorldGeneration measures generating a 1%-scale world.
func BenchmarkWorldGeneration(b *testing.B) {
	db, err := geoip.DefaultDB()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := population.Generate(population.DefaultParams(0.01), db); err != nil {
			b.Fatal(err)
		}
	}
}

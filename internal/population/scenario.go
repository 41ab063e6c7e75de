package population

import (
	"fmt"
	"sort"
	"time"

	"btpub/internal/geoip"
	"btpub/internal/rng"
)

// Scenario transforms: the adversarial publisher behaviour profiles the
// paper's crawler met in the wild (username aliasing, fast IP churn,
// antipiracy mass-publication waves, wholesale account deletion), layered
// on top of the cooperative base world. Every profile draws from its own
// derived stream and mutates or appends publishers in ID order, so the
// transform is deterministic and the base world is unchanged when a
// profile is off.

func (g *generator) applyScenarios(total int) {
	sc := g.p.Scenarios
	if sc == 0 || g.err != nil {
		return
	}
	if sc.Has(ScenarioAliasing) {
		g.applyAliasing()
	}
	if sc.Has(ScenarioIPChurn) {
		g.applyIPChurn()
	}
	if sc.Has(ScenarioFakeBlitz) {
		g.addFakeBlitz(total)
	}
	if sc.Has(ScenarioAccountPurge) {
		g.addStickyFakes(total)
	}
}

// applyAliasing converts ~a quarter of the portal operators into
// multi-account publishers: several long-lived usernames, uploads rotated
// round-robin (see assignAliasUsernames), all seeding from one small
// hosted IP pool. The shared pool is the fingerprint §3.3 exploits — the
// classifier must link the accounts back into one operator through the
// identified seeder IPs.
func (g *generator) applyAliasing() {
	s := g.root.Derive("scenario-alias")
	var ops []*Publisher
	for _, pub := range g.w.Publishers {
		if pub.Class == TopPortal {
			ops = append(ops, pub)
		}
	}
	k := (len(ops) + 3) / 4
	for i := 0; i < k; i++ {
		pub := ops[i]
		// Consolidate onto a two-server hosted pool with a reachable,
		// always-on seed box: every upload's initial seeder is
		// identifiable, which is what makes the accounts linkable.
		pub.ISP = g.pickHostingISP(s)
		pub.ExtraISPs = nil
		pub.IPPolicy = IPPool
		pub.IPs = g.drawIPs(s, pub.ISP, 2, 0.9)
		pub.RotatePeriod = time.Duration(s.Uniform(24, 72)) * time.Hour
		pub.NATed = false
		accounts := 3 + s.IntN(2)
		for j := 1; j < accounts; j++ {
			pub.Usernames = append(pub.Usernames, makeAliasUsername(s, pub.ID*10+j))
		}
		pub.Seed = SeedPolicy{
			MinSeed:       time.Duration(s.Uniform(10, 30)) * time.Hour,
			TargetSeeders: 4 + s.IntN(4),
			MaxParallel:   3 + s.IntN(2),
			DailyOnline:   24 * time.Hour,
		}
		pub.ConsumeRate = 0
		ensureSeedCapacity(pub, g.plan[pub.ID], CampaignDays)
	}
}

// applyIPChurn puts ~a quarter of the commercial-ISP top publishers on
// fast dynamic reassignment: a large address pool inside their one
// provider, rotated every few hours, so consecutive uploads rarely share
// an IP (the paper's 24 % dynamic case pushed to its worst).
func (g *generator) applyIPChurn() {
	s := g.root.Derive("scenario-churn")
	var cands []*Publisher
	for _, pub := range g.w.Publishers {
		if pub.Class.IsTop() && !g.isHosted(pub) && len(pub.Usernames) == 1 {
			cands = append(cands, pub)
		}
	}
	k := (len(cands) + 3) / 4
	for i := 0; i < k; i++ {
		pub := cands[i]
		pub.ExtraISPs = nil
		pub.IPPolicy = IPDynamic
		pub.RotatePeriod = time.Duration(s.Uniform(3, 8)) * time.Hour
		pub.IPs = g.drawIPs(s, pub.ISP, 14+s.IntN(8), 0.4)
		pub.NATed = false
	}
}

// addFakeBlitz appends one antipiracy agency that mass-publishes its whole
// decoy inventory (~6 % of the campaign's content) inside a 1.5–3 day
// window a few days in — the index-poisoning wave mn08 describes. The
// regular fake-account rotation and moderation burn-down apply, so the
// portal tears the wave back out while the crawler watches.
func (g *generator) addFakeBlitz(total int) {
	s := g.root.Derive("scenario-blitz")
	blitz := total * 6 / 100
	if blitz < 25 {
		blitz = 25
	}
	users := blitz / 11
	if users < 3 {
		users = 3
	}
	isp := rng.Pick(s, geoip.FakeHostingProviders())
	names := make([]string, users)
	for j := range names {
		names[j], _ = makeFakeUsername(s, 900000+j)
	}
	pub := &Publisher{
		Class:          FakeAntipiracy,
		Usernames:      names,
		ISP:            isp,
		IPs:            g.drawIPs(s, isp, 3+s.IntN(3), 0.8),
		IPPolicy:       IPPool,
		RotatePeriod:   time.Duration(s.Uniform(72, 168)) * time.Hour,
		AccountCreated: campaignStart.Add(-time.Duration(s.Uniform(0, 20*24)) * time.Hour),
		PublishOffset:  time.Duration(s.Uniform(2, 6)*24) * time.Hour,
		PublishSpan:    time.Duration(s.Uniform(36, 72)) * time.Hour,
		Seed: SeedPolicy{
			MinSeed:     time.Duration(s.Uniform(18, 48)) * time.Hour,
			MaxParallel: 30 + s.IntN(20),
			DailyOnline: 24 * time.Hour,
		},
		CatWeights: catMix(FakeAntipiracy, true),
	}
	days := int(pub.PublishSpan/(24*time.Hour)) + 1
	ensureSeedCapacity(pub, blitz, days)
	g.addPublisher(pub, blitz)
}

// addStickyFakes appends top-scale fake publishers that run one long-lived
// (hijacked-looking) account at genuine-top volume until the portal
// deletes the account — and every live upload — wholesale mid-campaign.
// These are the paper's 16 compromised usernames removed from its top-100:
// the classifier must evict them from the Top group on the deletion and
// takedown signals alone.
func (g *generator) addStickyFakes(total int) {
	s := g.root.Derive("scenario-purge")
	nTop := 0
	for _, pub := range g.w.Publishers {
		if pub.Class.IsTop() {
			nTop++
		}
	}
	k := nTop / 8
	if k < 2 {
		k = 2
	}
	campaign := time.Duration(CampaignDays) * 24 * time.Hour
	for i := 0; i < k; i++ {
		class := FakeAntipiracy
		if i%2 == 1 {
			class = FakeMalware
		}
		isp := rng.Pick(s, geoip.FakeHostingProviders())
		torrents := total * 3 / 200 // 1.5 % each: top-publisher scale
		if torrents < 10 {
			torrents = 10
		}
		pub := &Publisher{
			Class:         class,
			Usernames:     []string{makeAliasUsername(s, 8000+i)},
			ISP:           isp,
			IPs:           g.drawIPs(s, isp, 2+s.IntN(3), 0.8),
			IPPolicy:      IPPool,
			RotatePeriod:  time.Duration(s.Uniform(72, 168)) * time.Hour,
			StickyAccount: true,
			PurgeAt:       campaignStart.Add(time.Duration(s.Uniform(0.35, 0.75) * float64(campaign))),
			// A veteran account with history: it looks like a genuine top
			// publisher until the purge.
			AccountCreated:     campaignStart.Add(-time.Duration(s.Uniform(200, 800)*24) * time.Hour),
			HistoricalTorrents: 50 + s.IntN(200),
			Seed: SeedPolicy{
				MinSeed:       time.Duration(s.Uniform(12, 36)) * time.Hour,
				TargetSeeders: 3 + s.IntN(3),
				MaxParallel:   4 + s.IntN(3),
				DailyOnline:   24 * time.Hour,
			},
			CatWeights: catMix(class, true),
		}
		ensureSeedCapacity(pub, torrents, CampaignDays)
		g.addPublisher(pub, torrents)
	}
}

// assignAliasUsernames distributes an aliasing operator's uploads
// round-robin over its accounts in publish order, so every account stays
// active for the whole campaign and shares the pool's seeder IPs.
func assignAliasUsernames(pub *Publisher, mine []*Torrent) {
	sort.Slice(mine, func(i, j int) bool { return mine[i].Published.Before(mine[j].Published) })
	for i, tor := range mine {
		tor.Username = pub.Usernames[i%len(pub.Usernames)]
	}
}

// planStickyPurge aligns a sticky fake's takedowns with the wholesale
// account purge: every upload live at PurgeAt is removed at that instant
// (uploads attempted after it bounce off the suspended account), and the
// popularity factor stays moderate — the account must pass for a genuine
// top publisher, not a blockbuster-impersonation wave.
func (g *generator) planStickyPurge(s *rng.Stream, pub *Publisher, mine []*Torrent) {
	for _, tor := range mine {
		tor.Username = pub.Usernames[0]
		tor.Lambda0 *= s.Uniform(0.15, 0.45)
		if tor.Published.Before(pub.PurgeAt) {
			tor.RemovalAfter = pub.PurgeAt.Sub(tor.Published)
		} else {
			// The portal rejects the upload; the stray swarm dies at once.
			tor.RemovalAfter = 10 * time.Minute
		}
	}
}

// makeAliasUsername generates a long-lived extra account handle. The
// numeric tail sits outside the ranges the base-world generators use
// (two-digit top handles, underscore-separated regular/fake handles), so
// scenario accounts never collide with existing usernames.
func makeAliasUsername(s *rng.Stream, n int) string {
	return fmt.Sprintf("%s%s%d", rng.Pick(s, handleAdjectives), rng.Pick(s, handleNouns), 1000+n)
}

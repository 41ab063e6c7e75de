package swarm

import (
	"math"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"btpub/internal/metainfo"
	"btpub/internal/rng"
)

var epoch = time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)

// fakePool hands out sequential addresses; every 3rd peer is NATed.
type fakePool struct{ n int }

func (f *fakePool) DrawConsumer(*rng.Stream) (netip.Addr, bool) {
	f.n++
	return netip.AddrFrom4([4]byte{10, byte(f.n >> 16), byte(f.n >> 8), byte(f.n)}), f.n%3 == 0
}

func defaultParams() Params {
	return Params{
		InfoHash:         metainfo.HashBytes([]byte("x")),
		Birth:            epoch,
		Lambda0:          48, // 2 per hour
		TauDays:          5,
		Horizon:          35 * 24 * time.Hour,
		ContentSizeBytes: 700 << 20,
		NATFraction:      0.33,
		SeedProb:         0.5,
		MeanSeedHours:    6,
		AbortProb:        0.15,
	}
}

func newSwarm(t *testing.T, p Params) *Swarm {
	t.Helper()
	sw, err := New(p, rng.New(1, "swarm-test"), &fakePool{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

func TestArrivalVolumeMatchesExpectation(t *testing.T) {
	p := defaultParams()
	sw := newSwarm(t, p)
	// Expected arrivals = λ0·τ·(1-exp(-H/τ)) ≈ 48·5·(1-e^-7) ≈ 240.
	want := p.Lambda0 * p.TauDays * (1 - math.Exp(-35.0/p.TauDays))
	got := float64(sw.TotalArrivals())
	if got < want*0.75 || got > want*1.25 {
		t.Fatalf("arrivals = %v, want ~%v", got, want)
	}
}

func TestArrivalsDecay(t *testing.T) {
	sw := newSwarm(t, defaultParams())
	firstWeek, lastWeek := 0, 0
	for _, p := range sw.peers {
		age := p.Arrive.Sub(epoch)
		if age < 7*24*time.Hour {
			firstWeek++
		}
		if age > 28*24*time.Hour {
			lastWeek++
		}
	}
	if firstWeek <= 5*lastWeek {
		t.Fatalf("arrivals do not decay: first week %d, last week %d", firstWeek, lastWeek)
	}
}

func TestCountsEvolve(t *testing.T) {
	sw := newSwarm(t, defaultParams())
	s0, l0, err := sw.Counts(epoch)
	if err != nil {
		t.Fatal(err)
	}
	if s0 != 0 || l0 != 0 {
		t.Fatalf("at birth: %d seeders %d leechers, want 0/0", s0, l0)
	}
	s1, l1, err := sw.Counts(epoch.Add(24 * time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if s1+l1 == 0 {
		t.Fatal("swarm empty after a day at λ0=48/day")
	}
	if l1 == 0 {
		t.Fatal("no leechers after a day")
	}
}

func TestQueriesRejectGoingBackwards(t *testing.T) {
	sw := newSwarm(t, defaultParams())
	if _, _, err := sw.Counts(epoch.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sw.Counts(epoch.Add(time.Minute)); err == nil {
		t.Fatal("backwards query accepted")
	}
}

func TestFakeSwarmNeverSeeds(t *testing.T) {
	p := defaultParams()
	p.Fake = true
	sw := newSwarm(t, p)
	if sw.TotalArrivals() == 0 {
		t.Fatal("fake swarm attracted nobody")
	}
	for _, peer := range sw.peers {
		if !peer.Complete.IsZero() {
			t.Fatal("fake downloader completed")
		}
		if stay := peer.Depart.Sub(peer.Arrive); stay > 90*time.Minute {
			t.Fatalf("fake downloader stayed %v, want < ~1h", stay)
		}
	}
	for step := time.Duration(0); step < 48*time.Hour; step += time.Hour {
		s, _, err := sw.Counts(epoch.Add(step))
		if err != nil {
			t.Fatal(err)
		}
		if s != 0 {
			t.Fatal("fake swarm has a non-publisher seeder")
		}
	}
}

func TestRemovalStopsArrivals(t *testing.T) {
	p := defaultParams()
	p.Removed = epoch.Add(12 * time.Hour)
	sw := newSwarm(t, p)
	for _, peer := range sw.peers {
		if peer.Arrive.After(p.Removed) {
			t.Fatalf("arrival %v after removal %v", peer.Arrive, p.Removed)
		}
	}
}

func TestPublisherPresence(t *testing.T) {
	sw := newSwarm(t, defaultParams())
	pubIP := netip.MustParseAddr("11.0.0.7")
	iv := []Interval{
		{epoch, epoch.Add(10 * time.Hour)},
		{epoch.Add(20 * time.Hour), epoch.Add(30 * time.Hour)},
	}
	if err := sw.SetPublisherPresence(iv, []netip.Addr{pubIP, pubIP}); err != nil {
		t.Fatal(err)
	}
	m, ok, err := sw.PeerByIP(epoch.Add(5*time.Hour), pubIP)
	if err != nil || !ok {
		t.Fatalf("publisher not found while seeding: ok=%v err=%v", ok, err)
	}
	if !m.Seeder || !m.Publisher || m.Progress != 1 {
		t.Fatalf("publisher state = %+v", m)
	}
	if _, ok, _ := sw.PeerByIP(epoch.Add(15*time.Hour), pubIP); ok {
		t.Fatal("publisher visible during offline gap")
	}
	if _, ok, _ := sw.PeerByIP(epoch.Add(25*time.Hour), pubIP); !ok {
		t.Fatal("publisher missing in second interval")
	}
}

func TestPublisherCountsAsSeeder(t *testing.T) {
	p := defaultParams()
	p.Lambda0 = 0 // empty swarm: only the publisher
	sw, err := New(p, rng.New(2, "empty"), &fakePool{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pubIP := netip.MustParseAddr("11.0.0.9")
	err = sw.SetPublisherPresence(
		[]Interval{{epoch, epoch.Add(time.Hour)}}, []netip.Addr{pubIP})
	if err != nil {
		t.Fatal(err)
	}
	s, l, err := sw.Counts(epoch.Add(30 * time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 || l != 0 {
		t.Fatalf("counts = %d/%d, want 1 seeder 0 leechers", s, l)
	}
}

func TestSetPublisherPresenceValidation(t *testing.T) {
	sw := newSwarm(t, defaultParams())
	ip := netip.MustParseAddr("11.0.0.1")
	if err := sw.SetPublisherPresence(
		[]Interval{{epoch, epoch.Add(time.Hour)}}, nil); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	overlapping := []Interval{
		{epoch, epoch.Add(2 * time.Hour)},
		{epoch.Add(time.Hour), epoch.Add(3 * time.Hour)},
	}
	if err := sw.SetPublisherPresence(overlapping, []netip.Addr{ip, ip}); err == nil {
		t.Fatal("overlapping intervals accepted")
	}
}

func TestSampleBounded(t *testing.T) {
	sw := newSwarm(t, defaultParams())
	s := rng.New(3, "sample")
	now := epoch.Add(48 * time.Hour)
	all, err := sw.Members(now)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sw.Sample(now, 5, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) > 5 && len(got) != 5 {
		t.Fatalf("sample size = %d, want 5 (population %d)", len(got), len(all))
	}
	seen := map[netip.Addr]bool{}
	for _, m := range got {
		if seen[m.IP] {
			t.Fatalf("duplicate in sample: %v", m.IP)
		}
		seen[m.IP] = true
	}
}

func TestSampleIsUniformish(t *testing.T) {
	sw := newSwarm(t, defaultParams())
	s := rng.New(4, "uniform")
	now := epoch.Add(48 * time.Hour)
	all, err := sw.Members(now)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 10 {
		t.Skip("population too small for the distribution check")
	}
	hits := map[netip.Addr]int{}
	const rounds = 400
	for i := 0; i < rounds; i++ {
		sample, err := sw.Sample(now, len(all)/2, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range sample {
			hits[m.IP]++
		}
	}
	// Every member should be picked roughly half the time.
	for ip, h := range hits {
		f := float64(h) / rounds
		if f < 0.3 || f > 0.7 {
			t.Fatalf("member %v sampled with frequency %v, want ~0.5", ip, f)
		}
	}
	if len(hits) != len(all) {
		t.Fatalf("only %d/%d members ever sampled", len(hits), len(all))
	}
}

func TestSeederIntervalsMatchCounts(t *testing.T) {
	sw := newSwarm(t, defaultParams())
	ivs := sw.SeederIntervals(1)
	if len(ivs) == 0 {
		t.Fatal("no seeder intervals in a genuine swarm")
	}
	// Probing inside an interval must find >= 1 seeder; outside, 0.
	probe := ivs[0].Start.Add(ivs[0].Duration() / 2)
	s, _, err := sw.Counts(probe)
	if err != nil {
		t.Fatal(err)
	}
	if s < 1 {
		t.Fatalf("no seeder inside reported interval at %v", probe)
	}
}

func TestSeederIntervalsMinThreshold(t *testing.T) {
	sw := newSwarm(t, defaultParams())
	loose := sw.SeederIntervals(1)
	tight := sw.SeederIntervals(5)
	total := func(ivs []Interval) time.Duration {
		var d time.Duration
		for _, iv := range ivs {
			d += iv.Duration()
		}
		return d
	}
	if total(tight) > total(loose) {
		t.Fatalf("5-seeder coverage (%v) exceeds 1-seeder coverage (%v)",
			total(tight), total(loose))
	}
}

func TestInjectedExtraPeers(t *testing.T) {
	p := defaultParams()
	p.Lambda0 = 0
	ip := netip.MustParseAddr("11.42.0.1")
	extra := []*Peer{{
		IP:     ip,
		Arrive: epoch.Add(time.Hour),
		Depart: epoch.Add(5 * time.Hour),
	}}
	sw, err := New(p, rng.New(5, "extra"), &fakePool{}, extra)
	if err != nil {
		t.Fatal(err)
	}
	m, ok, err := sw.PeerByIP(epoch.Add(2*time.Hour), ip)
	if err != nil || !ok {
		t.Fatalf("extra peer not visible: %v %v", ok, err)
	}
	if m.Seeder {
		t.Fatal("extra leecher reported as seeder")
	}
}

func TestProgressSemantics(t *testing.T) {
	arrive := epoch
	complete := epoch.Add(4 * time.Hour)
	depart := epoch.Add(10 * time.Hour)
	p := &Peer{Arrive: arrive, Complete: complete, Depart: depart}
	if got := p.Progress(epoch.Add(2 * time.Hour)); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("mid-download progress = %v, want 0.5", got)
	}
	if got := p.Progress(epoch.Add(5 * time.Hour)); got != 1 {
		t.Fatalf("post-completion progress = %v, want 1", got)
	}
	if p.Progress(epoch.Add(11*time.Hour)) != 0 {
		t.Fatal("departed peer has progress")
	}
	aborter := &Peer{Arrive: arrive, Depart: epoch.Add(2 * time.Hour)}
	if got := aborter.Progress(epoch.Add(119 * time.Minute)); got > 0.95 {
		t.Fatalf("aborter progress = %v, want <= 0.95", got)
	}
}

func TestNewRejectsBadParams(t *testing.T) {
	pool := &fakePool{}
	p := defaultParams()
	p.TauDays = 0
	if _, err := New(p, rng.New(1, "x"), pool, nil); err == nil {
		t.Fatal("tau=0 accepted")
	}
	p = defaultParams()
	p.Horizon = 0
	if _, err := New(p, rng.New(1, "x"), pool, nil); err == nil {
		t.Fatal("horizon=0 accepted")
	}
	p = defaultParams()
	p.Lambda0 = -1
	if _, err := New(p, rng.New(1, "x"), pool, nil); err == nil {
		t.Fatal("negative lambda accepted")
	}
}

// Property: counts never go negative and members are consistent with counts
// at any sequence of forward probes.
func TestCountsMembersConsistencyProperty(t *testing.T) {
	sw := newSwarm(t, defaultParams())
	now := epoch
	f := func(stepMinutes uint16) bool {
		now = now.Add(time.Duration(stepMinutes%720) * time.Minute)
		s, l, err := sw.Counts(now)
		if err != nil {
			return false
		}
		ms, err := sw.Members(now)
		if err != nil {
			return false
		}
		gotSeeders := 0
		for _, m := range ms {
			if m.Seeder {
				gotSeeders++
			}
		}
		return s >= 0 && l >= 0 && len(ms) == s+l && gotSeeders == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: deterministic regeneration — same params and seed produce the
// same schedule.
func TestDeterministicGenerationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		p := defaultParams()
		a, err1 := New(p, rng.New(seed, "det"), &fakePool{}, nil)
		b, err2 := New(p, rng.New(seed, "det"), &fakePool{}, nil)
		if err1 != nil || err2 != nil || a.TotalArrivals() != b.TotalArrivals() {
			return false
		}
		for i := range a.peers {
			if !a.peers[i].Arrive.Equal(b.peers[i].Arrive) || a.peers[i].IP != b.peers[i].IP {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

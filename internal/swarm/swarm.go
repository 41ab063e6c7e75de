// Package swarm simulates the peer membership of one BitTorrent swarm over
// virtual time.
//
// The paper's crawler never sees a swarm directly — it sees what the
// tracker reports (a random subset of member IPs, seeder/leecher counts)
// and what individual peers answer over the wire protocol (handshake +
// bitfield). This package therefore models exactly that observable state:
// who is in the swarm at time t, which of them are seeders, what download
// progress each leecher has, and which peers are unreachable behind NAT.
//
// Peer arrivals follow a non-homogeneous Poisson process with rate
// λ(t) = λ0·exp(-t/τ) — interest in a torrent decays after publication.
// Fake torrents additionally stop attracting peers when the portal removes
// them, and their leechers abort quickly without ever completing (nobody
// can finish a decoy), which is what forces fake publishers into the
// always-on multi-torrent seeding signature of Section 4.3.
package swarm

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"sort"
	"time"

	"btpub/internal/metainfo"
	"btpub/internal/rng"
)

// Interval is a half-open time range [Start, End).
type Interval struct {
	Start, End time.Time
}

// Contains reports whether t falls inside the interval.
func (iv Interval) Contains(t time.Time) bool {
	return !t.Before(iv.Start) && t.Before(iv.End)
}

// Duration returns the interval length.
func (iv Interval) Duration() time.Duration { return iv.End.Sub(iv.Start) }

// ConsumerPool supplies downloader identities. Implemented by the ecosystem
// on top of the geoip database (commercial/residential ISP mix, no hosting
// providers — the paper checked that OVH never shows up as a consumer).
type ConsumerPool interface {
	// DrawConsumer returns the IP of a fresh downloader and whether it sits
	// behind a NAT (unreachable for inbound wire connections).
	DrawConsumer(s *rng.Stream) (addr netip.Addr, nat bool)
}

// Params configure one swarm.
type Params struct {
	InfoHash  metainfo.Hash
	TorrentID int
	Birth     time.Time // publication instant

	Lambda0 float64 // initial arrival rate, peers/day
	TauDays float64 // interest decay constant

	// Horizon bounds arrival generation (campaign end + drain margin).
	Horizon time.Duration

	// Removed, when non-zero, is the instant the portal pulled the torrent;
	// no arrivals happen after it.
	Removed time.Time

	// Fake leechers abort without completing and never seed.
	Fake bool

	// ContentSizeBytes drives download durations.
	ContentSizeBytes int64

	// NATFraction of peers cannot accept inbound connections.
	NATFraction float64

	// SeedProb is the probability a completed downloader stays to seed.
	SeedProb float64
	// MeanSeedHours is the mean post-completion seeding time.
	MeanSeedHours float64
	// AbortProb is the probability a genuine leecher gives up early.
	AbortProb float64
}

// Peer is one (non-publisher) swarm member.
type Peer struct {
	IP       netip.Addr
	NAT      bool
	Arrive   time.Time
	Complete time.Time // zero if never completed
	Depart   time.Time
}

// IsSeederAt reports whether the peer is a connected seeder at t.
func (p *Peer) IsSeederAt(t time.Time) bool {
	return !p.Complete.IsZero() && !t.Before(p.Complete) && t.Before(p.Depart)
}

// ActiveAt reports whether the peer is connected at t.
func (p *Peer) ActiveAt(t time.Time) bool {
	return !t.Before(p.Arrive) && t.Before(p.Depart)
}

// Progress returns the download progress in [0,1] at t (1 for seeders).
func (p *Peer) Progress(t time.Time) float64 {
	if !p.ActiveAt(t) {
		return 0
	}
	if !p.Complete.IsZero() && !t.Before(p.Complete) {
		return 1
	}
	end := p.Complete
	if end.IsZero() {
		end = p.Depart // aborting peer: progress ramps toward its exit
	}
	total := end.Sub(p.Arrive)
	if total <= 0 {
		return 0
	}
	f := float64(t.Sub(p.Arrive)) / float64(total)
	if f > 1 {
		f = 1
	}
	if p.Complete.IsZero() && f > 0.95 {
		f = 0.95 // aborters never reach 100 %
	}
	return f
}

// Swarm is the simulated membership state. Queries must use non-decreasing
// timestamps (the crawler only moves forward in time).
type Swarm struct {
	P Params

	peers []*Peer // sorted by Arrive; includes injected consumers

	// publisher presence: seeding intervals and active address per interval
	pubIntervals []Interval
	pubIPs       []netip.Addr

	// cursor state
	cursor  int        // next peer to admit
	active  activeHeap // admitted, not yet departed, ordered by Depart
	lastNow time.Time
}

type activeHeap []*Peer

func (h activeHeap) Len() int            { return len(h) }
func (h activeHeap) Less(i, j int) bool  { return h[i].Depart.Before(h[j].Depart) }
func (h activeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *activeHeap) Push(x interface{}) { *h = append(*h, x.(*Peer)) }
func (h *activeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return p
}

// New builds a swarm, pre-generating its full arrival schedule from the
// deterministic stream. extra peers (e.g. publishers consuming content from
// their home connection) are merged into the schedule.
func New(p Params, s *rng.Stream, pool ConsumerPool, extra []*Peer) (*Swarm, error) {
	if p.Lambda0 < 0 || p.TauDays <= 0 {
		return nil, fmt.Errorf("swarm: bad popularity λ0=%v τ=%v", p.Lambda0, p.TauDays)
	}
	if p.Horizon <= 0 {
		return nil, errors.New("swarm: horizon must be positive")
	}
	sw := &Swarm{P: p}
	sw.generateArrivals(s, pool)
	sw.peers = append(sw.peers, extra...)
	sort.Slice(sw.peers, func(i, j int) bool { return sw.peers[i].Arrive.Before(sw.peers[j].Arrive) })
	sw.lastNow = p.Birth.Add(-time.Second)
	return sw, nil
}

// generateArrivals draws the non-homogeneous Poisson schedule by thinning a
// homogeneous process at rate λ0.
func (sw *Swarm) generateArrivals(s *rng.Stream, pool ConsumerPool) {
	p := sw.P
	if p.Lambda0 == 0 {
		return
	}
	end := p.Birth.Add(p.Horizon)
	if !p.Removed.IsZero() && p.Removed.Before(end) {
		end = p.Removed
	}
	meanGap := 24.0 / p.Lambda0 // hours between candidate arrivals at peak
	for t := p.Birth; t.Before(end); {
		gap := s.Exp(meanGap)
		t = t.Add(time.Duration(gap * float64(time.Hour)))
		if !t.Before(end) {
			break
		}
		// Thinning: accept with probability λ(t)/λ0 = exp(-age/τ).
		ageDays := t.Sub(p.Birth).Hours() / 24
		if !s.Bool(expNeg(ageDays / p.TauDays)) {
			continue
		}
		ip, nat := pool.DrawConsumer(s)
		sw.peers = append(sw.peers, sw.makePeer(s, ip, nat, t))
	}
}

func expNeg(x float64) float64 {
	if x > 700 {
		return 0
	}
	return math.Exp(-x)
}

// makePeer rolls the lifecycle of one downloader arriving at t.
func (sw *Swarm) makePeer(s *rng.Stream, ip netip.Addr, nat bool, t time.Time) *Peer {
	p := sw.P
	peer := &Peer{IP: ip, NAT: nat, Arrive: t}
	if p.Fake {
		// Fake content: the download never verifies; users notice within
		// the hour and leave. Nobody ever seeds.
		stay := time.Duration(s.Uniform(10, 70) * float64(time.Minute))
		peer.Depart = t.Add(stay)
		return peer
	}
	// Download duration from content size and a consumer-bandwidth spread:
	// median rate ~150 MB/h with a log-normal factor.
	sizeMB := float64(p.ContentSizeBytes) / (1 << 20)
	if sizeMB < 1 {
		sizeMB = 1
	}
	medianHours := sizeMB / 150
	dl := s.LogNormalMedian(medianHours, 0.8)
	if dl < 0.05 {
		dl = 0.05
	}
	if dl > 240 {
		dl = 240
	}
	dur := time.Duration(dl * float64(time.Hour))
	if s.Bool(p.AbortProb) {
		peer.Depart = t.Add(time.Duration(s.Uniform(0.1, 0.9) * float64(dur)))
		return peer
	}
	peer.Complete = t.Add(dur)
	seed := time.Duration(0)
	if s.Bool(p.SeedProb) {
		seed = time.Duration(s.Exp(p.MeanSeedHours) * float64(time.Hour))
	} else {
		seed = time.Duration(s.Uniform(0, 10) * float64(time.Minute))
	}
	peer.Depart = peer.Complete.Add(seed)
	return peer
}

// SetPublisherPresence installs the publisher's seeding schedule: a list of
// intervals during which the publisher is connected as a seeder, with the
// address it uses in each interval. Must be called before queries.
func (sw *Swarm) SetPublisherPresence(intervals []Interval, ips []netip.Addr) error {
	if len(intervals) != len(ips) {
		return fmt.Errorf("swarm: %d intervals vs %d ips", len(intervals), len(ips))
	}
	for i := 1; i < len(intervals); i++ {
		if intervals[i].Start.Before(intervals[i-1].End) {
			return errors.New("swarm: publisher intervals must be sorted and disjoint")
		}
	}
	sw.pubIntervals = intervals
	sw.pubIPs = ips
	return nil
}

// publisherAt returns the publisher's address if it is seeding at t.
func (sw *Swarm) publisherAt(t time.Time) (netip.Addr, bool) {
	// Intervals are few (seeding windows); linear scan from the back is
	// fine and avoids holding extra cursor state.
	for i := len(sw.pubIntervals) - 1; i >= 0; i-- {
		iv := sw.pubIntervals[i]
		if iv.Contains(t) {
			return sw.pubIPs[i], true
		}
		if t.After(iv.End) {
			return netip.Addr{}, false
		}
	}
	return netip.Addr{}, false
}

// advance admits arrivals and evicts departures up to now.
func (sw *Swarm) advance(now time.Time) error {
	if now.Before(sw.lastNow) {
		return fmt.Errorf("swarm: time went backwards (%v < %v)", now, sw.lastNow)
	}
	sw.lastNow = now
	for sw.cursor < len(sw.peers) && !sw.peers[sw.cursor].Arrive.After(now) {
		heap.Push(&sw.active, sw.peers[sw.cursor])
		sw.cursor++
	}
	for len(sw.active) > 0 && !sw.active[0].Depart.After(now) {
		heap.Pop(&sw.active)
	}
	return nil
}

// Counts reports the numbers of seeders and leechers at now, including the
// publisher when present.
func (sw *Swarm) Counts(now time.Time) (seeders, leechers int, err error) {
	if err := sw.advance(now); err != nil {
		return 0, 0, err
	}
	for _, p := range sw.active {
		if !p.ActiveAt(now) {
			continue // admitted this instant but departing exactly now
		}
		if p.IsSeederAt(now) {
			seeders++
		} else {
			leechers++
		}
	}
	if _, ok := sw.publisherAt(now); ok {
		seeders++
	}
	return seeders, leechers, nil
}

// Member is a swarm member as visible to the tracker.
type Member struct {
	IP        netip.Addr
	Seeder    bool
	NAT       bool
	Publisher bool
	Progress  float64
}

// Members returns the full membership at now (publisher included).
func (sw *Swarm) Members(now time.Time) ([]Member, error) {
	if err := sw.advance(now); err != nil {
		return nil, err
	}
	out := make([]Member, 0, len(sw.active)+1)
	for _, p := range sw.active {
		if !p.ActiveAt(now) {
			continue
		}
		out = append(out, Member{
			IP:       p.IP,
			Seeder:   p.IsSeederAt(now),
			NAT:      p.NAT,
			Progress: p.Progress(now),
		})
	}
	if ip, ok := sw.publisherAt(now); ok {
		out = append(out, Member{IP: ip, Seeder: true, Publisher: true, Progress: 1})
	}
	return out, nil
}

// Sample returns up to max members drawn uniformly without replacement,
// mimicking a tracker's announce response.
func (sw *Swarm) Sample(now time.Time, max int, s *rng.Stream) ([]Member, error) {
	all, err := sw.Members(now)
	if err != nil {
		return nil, err
	}
	if len(all) <= max {
		return all, nil
	}
	s.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:max], nil
}

// PeerByIP finds the state of the member using addr at now; used by the
// crawler's wire-level probe. Returns ok=false if no such member is active.
func (sw *Swarm) PeerByIP(now time.Time, addr netip.Addr) (Member, bool, error) {
	all, err := sw.Members(now)
	if err != nil {
		return Member{}, false, err
	}
	for _, m := range all {
		if m.IP == addr {
			return m, true, nil
		}
	}
	return Member{}, false, nil
}

// SeederIntervals returns the time ranges during which at least min
// non-publisher seeders are simultaneously present. The ecosystem uses this
// to decide when a publisher can abandon a swarm (Section 4.3's
// "publisher can leave once there is an adequate fraction of other seeds").
func (sw *Swarm) SeederIntervals(min int) []Interval {
	if min <= 0 {
		min = 1
	}
	type event struct {
		at    time.Time
		delta int
	}
	var evs []event
	for _, p := range sw.peers {
		if p.Complete.IsZero() || !p.Depart.After(p.Complete) {
			continue
		}
		evs = append(evs, event{p.Complete, +1}, event{p.Depart, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if !evs[i].at.Equal(evs[j].at) {
			return evs[i].at.Before(evs[j].at)
		}
		return evs[i].delta < evs[j].delta // departures first at ties
	})
	var out []Interval
	count := 0
	var start time.Time
	inRun := false
	for _, e := range evs {
		count += e.delta
		if count >= min && !inRun {
			start, inRun = e.at, true
		} else if count < min && inRun {
			out = append(out, Interval{start, e.at})
			inRun = false
		}
	}
	if inRun {
		out = append(out, Interval{start, sw.P.Birth.Add(sw.P.Horizon)})
	}
	return out
}

// TotalArrivals reports how many downloader arrivals the swarm will ever
// see (ground truth, not crawler-observed).
func (sw *Swarm) TotalArrivals() int { return len(sw.peers) }

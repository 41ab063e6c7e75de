// Package ecosystem assembles the full simulated BitTorrent world the
// crawler measures: a population of publishers (internal/population), a
// portal with RSS and moderation (internal/portal), one swarm per torrent
// (internal/swarm) exposed through a tracker store (internal/tracker), and
// wire-level peer reachability for initial-seeder identification
// (internal/wire).
//
// The ecosystem runs on a virtual clock. Torrent publications and portal
// take-downs are scheduled as clock events; the crawler advances the same
// clock, so a 30-day campaign replays in seconds while every component
// observes a consistent timeline.
package ecosystem

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"btpub/internal/geoip"
	"btpub/internal/metainfo"
	"btpub/internal/population"
	"btpub/internal/portal"
	"btpub/internal/rng"
	"btpub/internal/simclock"
	"btpub/internal/swarm"
	"btpub/internal/tracker"
	"btpub/internal/wire"
)

// Config assembles an ecosystem.
type Config struct {
	// World is the generated ground truth.
	World *population.World
	// DB is the ISP registry the world was generated against.
	DB *geoip.DB
	// Clock drives all components (usually a *simclock.Sim).
	Clock *simclock.Sim
	// TrackerURL is the announce URL embedded in .torrent files.
	TrackerURL string
	// Seed decorrelates ecosystem randomness (consumer draws, sampling)
	// from the world generation.
	Seed uint64
	// ShardIndex/ShardCount restrict this ecosystem to one shard of the
	// world: only publishers with ID % ShardCount == ShardIndex (and their
	// torrents) exist here. Sharding by publisher keeps each publisher's
	// seeding-slot queue, portal account and username sweep inside a single
	// shard. ShardCount <= 1 owns the whole world.
	ShardIndex int
	ShardCount int
	// Consumption is the full-world publisher-consumption plan, normally
	// PlanConsumption(World, Seed). Leave nil to have New compute it;
	// multi-shard callers compute it once and share it so N shards do not
	// redo (and hold) N copies of the same plan.
	Consumption map[int][]ConsumptionEvent
}

// The simulated world's fixed settings.
const (
	// portalName labels the portal.
	portalName = "SimBay"
	// natFraction of consumers is unreachable for wire probes.
	natFraction = 0.35
	// drainDays extends swarm life past the campaign so late torrents
	// still develop.
	drainDays = 10
)

// ownsPublisher reports whether this ecosystem's shard includes pubID.
func (c *Config) ownsPublisher(pubID int) bool {
	if c.ShardCount <= 1 {
		return true
	}
	return pubID%c.ShardCount == c.ShardIndex
}

// Ecosystem is the assembled world.
type Ecosystem struct {
	cfg    Config
	clock  *simclock.Sim
	Portal *portal.Portal

	seed uint64 // mixed scenario seed; all streams derive purely from it
	pool *consumerPool

	mu      sync.Mutex
	swarms  map[metainfo.Hash]*swarmState
	byID    map[int]*swarmState // torrent ID -> state
	pending int                 // torrents not yet published
}

type swarmState struct {
	mu        sync.Mutex
	sw        *swarm.Swarm
	tor       *population.Torrent
	infoHash  metainfo.Hash
	numPieces int
	lastNow   time.Time
	sampleRng *rng.Stream
	plan      seedPlan
	pubNAT    bool
}

// New builds the ecosystem and schedules every publication and moderation
// event on the clock. Events fire as the clock advances.
//
// Every random stream the ecosystem uses is derived purely from
// (cfg.Seed, torrent ID) — never from a shared stream consumed in event
// order — so a torrent's swarm unfolds identically whether the world runs
// whole or split across shards.
func New(cfg Config) (*Ecosystem, error) {
	if cfg.World == nil || cfg.DB == nil || cfg.Clock == nil {
		return nil, errors.New("ecosystem: World, DB and Clock are required")
	}
	if cfg.ShardCount > 1 && (cfg.ShardIndex < 0 || cfg.ShardIndex >= cfg.ShardCount) {
		return nil, fmt.Errorf("ecosystem: shard index %d outside [0, %d)", cfg.ShardIndex, cfg.ShardCount)
	}
	if cfg.TrackerURL == "" {
		cfg.TrackerURL = "http://tracker.sim/announce"
	}
	p, err := portal.New(portalName, cfg.Clock)
	if err != nil {
		return nil, err
	}
	e := &Ecosystem{
		cfg:    cfg,
		clock:  cfg.Clock,
		Portal: p,
		seed:   cfg.Seed ^ 0x5bd1e995,
		swarms: map[metainfo.Hash]*swarmState{},
		byID:   map[int]*swarmState{},
	}
	e.pool = newConsumerPool(cfg.DB)

	// Register portal accounts with their pre-campaign history (owned
	// publishers only: a sharded portal serves exactly its shard's feed and
	// user pages).
	for _, pub := range cfg.World.Publishers {
		if !cfg.ownsPublisher(pub.ID) {
			continue
		}
		for _, username := range pub.Usernames {
			histEach := pub.HistoricalTorrents / len(pub.Usernames)
			if err := p.RegisterAccount(username, pub.AccountCreated, histEach, pub.AccountCreated.Add(24*time.Hour)); err != nil {
				return nil, fmt.Errorf("ecosystem: register %q: %w", username, err)
			}
		}
	}

	// Publisher consumption: which publishers appear as leechers in which
	// torrents (top-100 IP download analysis, §3.1). The plan is pure in
	// (World, Seed), so a shared plan and a recomputed one are identical.
	consumption := cfg.Consumption
	if consumption == nil {
		consumption = PlanConsumption(cfg.World, cfg.Seed)
	}

	// Schedule every publication on the clock. Swarm construction happens
	// at publish time to keep peak memory proportional to elapsed time.
	planners := map[int]*planner{}
	for _, pub := range cfg.World.Publishers {
		if cfg.ownsPublisher(pub.ID) {
			planners[pub.ID] = newPlanner(pub, cfg.World.Start)
		}
	}
	for _, tor := range cfg.World.Torrents {
		if !cfg.ownsPublisher(tor.PublisherID) {
			continue
		}
		tor := tor
		e.pending++
		e.clock.Schedule(tor.Published, func(now time.Time) {
			e.publish(tor, planners[tor.PublisherID], consumption[tor.ID], now)
		})
	}

	// Wholesale account purges (the account-purge scenario): at PurgeAt the
	// portal deletes the publisher's accounts and every live upload at once.
	// Uploads scheduled after the purge bounce off the suspended account.
	for _, pub := range cfg.World.Publishers {
		if pub.PurgeAt.IsZero() || !cfg.ownsPublisher(pub.ID) {
			continue
		}
		pub := pub
		e.clock.Schedule(pub.PurgeAt, func(time.Time) {
			for _, name := range pub.Usernames {
				// Not-found is fine: the account may never have managed a
				// successful upload in this shard's window.
				_ = e.Portal.SuspendAccount(name)
			}
		})
	}
	return e, nil
}

// Clock exposes the ecosystem clock.
func (e *Ecosystem) Clock() *simclock.Sim { return e.clock }

// World exposes the ground truth for validation.
func (e *Ecosystem) World() *population.World { return e.cfg.World }

// ConsumptionEvent injects a publisher's own IP as a leecher some delay
// after a torrent's publication.
type ConsumptionEvent struct {
	IP    netip.Addr
	Delay time.Duration // after torrent publication
}

// PlanConsumption rolls, for every consuming publisher, which torrents it
// downloads during the campaign (top-100 IP download analysis, §3.1). The
// result is keyed by torrent ID and is a pure function of (w, seed): no
// shared stream state, so concurrent shards derive identical plans.
func PlanConsumption(w *population.World, seed uint64) map[int][]ConsumptionEvent {
	s := rng.Labeled(seed^0x5bd1e995, "consumption", 0)
	out := map[int][]ConsumptionEvent{}
	n := len(w.Torrents)
	if n == 0 {
		return out
	}
	days := float64(population.CampaignDays)
	for _, pub := range w.Publishers {
		if pub.ConsumeRate <= 0 {
			continue
		}
		count := s.Poisson(pub.ConsumeRate * days)
		for i := 0; i < count; i++ {
			tid := s.IntN(n)
			offset := time.Duration(s.Uniform(1, 72)) * time.Hour
			ipIdx := s.IntN(len(pub.IPs))
			out[tid] = append(out[tid], ConsumptionEvent{IP: pub.IPs[ipIdx], Delay: offset})
		}
	}
	return out
}

// publish fires at a torrent's publication instant: builds the .torrent,
// indexes it on the portal, creates the swarm and installs the publisher's
// seeding schedule; finally schedules moderation for fakes.
func (e *Ecosystem) publish(tor *population.Torrent, pl *planner, cons []ConsumptionEvent, now time.Time) {
	b := metainfo.Builder{
		Name:     tor.FileName,
		Length:   tor.SizeBytes,
		Announce: e.cfg.TrackerURL,
		Created:  now,
		Seed:     tor.ContentSeed,
	}
	mi, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("ecosystem: build torrent %d: %v", tor.ID, err))
	}
	data, err := mi.Marshal()
	if err != nil {
		panic(fmt.Sprintf("ecosystem: marshal torrent %d: %v", tor.ID, err))
	}
	ih, err := mi.InfoHash()
	if err != nil {
		panic(fmt.Sprintf("ecosystem: hash torrent %d: %v", tor.ID, err))
	}

	var removal time.Time
	if tor.RemovalAfter > 0 {
		removal = now.Add(tor.RemovalAfter)
	}

	horizon := e.cfg.World.Start.
		Add(time.Duration(population.CampaignDays+drainDays) * 24 * time.Hour).
		Sub(now)
	if horizon < 24*time.Hour {
		horizon = 24 * time.Hour
	}
	var extra []*swarm.Peer
	cs := rng.Labeled(e.seed, "extra", tor.ID)
	for _, ev := range cons {
		arrive := now.Add(ev.Delay)
		stay := time.Duration(cs.Uniform(1, 12) * float64(time.Hour))
		extra = append(extra, &swarm.Peer{
			IP:     ev.IP,
			Arrive: arrive,
			Depart: arrive.Add(stay),
		})
	}
	// Fake entities usually co-seed each decoy from a second racked box for
	// availability, so the newborn swarm reports two seeders and the
	// crawler's single-seeder identification rule does not fire — the
	// reason the paper could not identify the publisher IP for most fake
	// content (footnote 2) and fake providers stay minor in its Table 2.
	pub := e.cfg.World.Publishers[tor.PublisherID]
	if tor.Fake && len(pub.IPs) > 1 && cs.Bool(0.7) {
		end := removal
		if end.IsZero() {
			end = now.Add(48 * time.Hour)
		}
		co := pub.IPs[1+cs.IntN(len(pub.IPs)-1)]
		extra = append(extra, &swarm.Peer{
			IP:       co,
			Arrive:   now,
			Complete: now,
			Depart:   end,
		})
	}
	sw, err := swarm.New(swarm.Params{
		InfoHash:         ih,
		TorrentID:        tor.ID,
		Birth:            now,
		Lambda0:          tor.Lambda0,
		TauDays:          tor.TauDays,
		Horizon:          horizon,
		Removed:          removal,
		Fake:             tor.Fake,
		ContentSizeBytes: tor.SizeBytes,
		NATFraction:      natFraction,
		SeedProb:         0.5,
		MeanSeedHours:    6,
		AbortProb:        0.15,
	}, rng.Labeled(e.seed, "swarm", tor.ID), e.pool, extra)
	if err != nil {
		panic(fmt.Sprintf("ecosystem: swarm %d: %v", tor.ID, err))
	}

	plan := pl.plan(sw, now, removal)
	if err := sw.SetPublisherPresence(plan.intervals, plan.ips); err != nil {
		panic(fmt.Sprintf("ecosystem: presence %d: %v", tor.ID, err))
	}

	st := &swarmState{
		sw:        sw,
		tor:       tor,
		infoHash:  ih,
		numPieces: mi.Info.NumPieces(),
		sampleRng: rng.Labeled(e.seed, "sample", tor.ID),
		plan:      plan,
		lastNow:   now.Add(-time.Second),
		pubNAT:    e.cfg.World.Publishers[tor.PublisherID].NATed,
	}
	e.mu.Lock()
	e.swarms[ih] = st
	e.byID[tor.ID] = st
	e.pending--
	e.mu.Unlock()

	if _, err := e.Portal.Publish(&portal.Entry{
		Title:        tor.Title,
		Category:     mainCategory(tor.Category),
		SubCategory:  tor.Category.String(),
		Username:     tor.Username,
		InfoHash:     ih,
		TorrentData:  data,
		SizeBytes:    tor.SizeBytes,
		Description:  tor.Description,
		FileName:     tor.FileName,
		BundledFiles: tor.BundledFiles,
	}); err != nil && !errors.Is(err, portal.ErrSuspended) {
		panic(fmt.Sprintf("ecosystem: portal publish %d: %v", tor.ID, err))
	}

	if !removal.IsZero() {
		e.clock.Schedule(removal, func(time.Time) {
			_ = e.Portal.Remove(ih) // already-removed is fine
		})
	}
}

func mainCategory(c population.Category) string {
	switch {
	case c.IsVideo():
		return "Video"
	case c == population.Music:
		return "Audio"
	case c == population.Apps:
		return "Applications"
	case c == population.Games:
		return "Games"
	case c == population.Books:
		return "Books"
	default:
		return "Other"
	}
}

// ---------------------------------------------------------------------
// tracker.Store implementation
// ---------------------------------------------------------------------

// Snapshot implements tracker.Store over the simulated swarms. It records
// now as the swarm's latest time, the instant PeerState answers probes at.
func (e *Ecosystem) Snapshot(ih metainfo.Hash, now time.Time, maxPeers int) ([]swarm.Member, int, int, error) {
	e.mu.Lock()
	st := e.swarms[ih]
	e.mu.Unlock()
	if st == nil {
		return nil, 0, 0, tracker.ErrUnknownSwarm
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.lastNow = now
	seeders, leechers, err := st.sw.Counts(now)
	if err != nil {
		return nil, 0, 0, err
	}
	var members []swarm.Member
	if maxPeers > 0 {
		members, err = st.sw.Sample(now, maxPeers, st.sampleRng)
		if err != nil {
			return nil, 0, 0, err
		}
	}
	return members, seeders, leechers, nil
}

var _ tracker.Store = (*Ecosystem)(nil)

// ---------------------------------------------------------------------
// Wire-level peer reachability
// ---------------------------------------------------------------------

// ErrUnreachable is returned when probing a NATed or absent peer.
var ErrUnreachable = errors.New("ecosystem: peer unreachable")

// Prober abstracts wire-level contact so the crawler runs identically
// in-process and over TCP.
type Prober interface {
	Probe(ctx context.Context, addr netip.Addr, ih metainfo.Hash, numPieces int) (*wire.ProbeResult, error)
}

// PeerState returns the wire-visible state of addr in swarm ih at the
// swarm's current time: reachable (not NAT), and its bitfield-progress.
func (e *Ecosystem) PeerState(ih metainfo.Hash, addr netip.Addr) (wire.PeerState, error) {
	e.mu.Lock()
	st := e.swarms[ih]
	e.mu.Unlock()
	if st == nil {
		return wire.PeerState{}, tracker.ErrUnknownSwarm
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	m, ok, err := st.sw.PeerByIP(st.lastNow, addr)
	if err != nil {
		return wire.PeerState{}, err
	}
	if !ok || m.NAT || (m.Publisher && st.pubNAT) {
		return wire.PeerState{}, ErrUnreachable
	}
	state := wire.PeerState{NumPieces: st.numPieces, Progress: m.Progress}
	copy(state.PeerID[:], fmt.Sprintf("-SIM001-%012d", hash32(addr)))
	return state, nil
}

func hash32(addr netip.Addr) uint32 {
	b := addr.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// InProcessProber performs the handshake/bitfield exchange through an
// in-memory pipe, so the full wire codepath is exercised without sockets.
type InProcessProber struct {
	E *Ecosystem
}

// Probe implements Prober.
func (p *InProcessProber) Probe(_ context.Context, addr netip.Addr, ih metainfo.Hash, numPieces int) (*wire.ProbeResult, error) {
	state, err := p.E.PeerState(ih, addr)
	if err != nil {
		return nil, err
	}
	client, server := net.Pipe()
	errc := make(chan error, 1)
	go func() {
		errc <- wire.Serve(server, func(got metainfo.Hash) (wire.PeerState, bool) {
			return state, got == ih
		})
		server.Close()
	}()
	var myID [20]byte
	copy(myID[:], "-BTPUB0-crawler00000")
	res, probeErr := wire.Probe(client, ih, myID, numPieces, 5*time.Second)
	client.Close()
	if serveErr := <-errc; probeErr == nil && serveErr != nil {
		return nil, serveErr
	}
	return res, probeErr
}

var _ Prober = (*InProcessProber)(nil)

// ---------------------------------------------------------------------
// Consumer pool
// ---------------------------------------------------------------------

// consumerPool draws downloader IPs from commercial/residential ISPs only;
// the paper verified hosting providers never appear among consumers. The
// pool is immutable after construction: every draw comes from the caller's
// per-swarm stream, so a swarm's downloader identities are a pure function
// of its own stream — identical across shard counts and GOMAXPROCS.
type consumerPool struct {
	db      *geoip.DB
	isps    []string
	weights []float64
}

func newConsumerPool(db *geoip.DB) *consumerPool {
	cp := &consumerPool{db: db}
	for _, name := range db.ISPNames() {
		isp := db.ISPByName(name)
		if isp.Type != geoip.Commercial {
			continue
		}
		cp.isps = append(cp.isps, name)
		// Weight consumers by the ISP's footprint so big access networks
		// contribute more downloaders.
		cp.weights = append(cp.weights, float64(len(isp.Prefixes)))
	}
	return cp
}

// DrawConsumer implements swarm.ConsumerPool.
func (cp *consumerPool) DrawConsumer(s *rng.Stream) (netip.Addr, bool) {
	idx := s.WeightedChoice(cp.weights)
	addr, err := cp.db.RandomIP(s, cp.isps[idx], 0)
	if err != nil {
		// The registry is static; failure here is a programming error.
		panic("ecosystem: draw consumer: " + err.Error())
	}
	return addr, s.Bool(natFraction)
}

// ---------------------------------------------------------------------
// Ground-truth accessors (validation and experiment reports)
// ---------------------------------------------------------------------

// TorrentByHash returns the ground-truth torrent behind an info-hash.
func (e *Ecosystem) TorrentByHash(ih metainfo.Hash) (*population.Torrent, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.swarms[ih]
	if st == nil {
		return nil, false
	}
	return st.tor, true
}

// PublisherOf returns the ground-truth publisher of a torrent ID.
func (e *Ecosystem) PublisherOf(torrentID int) (*population.Publisher, bool) {
	if torrentID < 0 || torrentID >= len(e.cfg.World.Torrents) {
		return nil, false
	}
	return e.cfg.World.Publishers[e.cfg.World.Torrents[torrentID].PublisherID], true
}

// GroundTruthPresence returns the publisher's true seeding intervals for a
// torrent (for validating the Appendix A estimator).
func (e *Ecosystem) GroundTruthPresence(torrentID int) ([]swarm.Interval, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.byID[torrentID]
	if st == nil {
		return nil, false
	}
	return st.plan.intervals, true
}

// PublishedSwarms reports how many torrents have been published so far.
func (e *Ecosystem) PublishedSwarms() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.swarms)
}

// Package crawler implements the paper's measurement instrument
// (Section 2):
//
//  1. poll the portal's RSS feed to detect each new torrent within minutes
//     of its birth and record the publisher's username;
//  2. immediately download the .torrent and announce to its tracker; when
//     the newborn swarm has exactly one seeder and fewer than 20 peers,
//     probe the returned peers over the wire protocol and record the
//     single complete peer's address as the initial publisher's IP
//     (peers behind NAT are unreachable, so — like the paper — the IP is
//     identified for only a fraction of torrents);
//  3. keep querying the tracker for every monitored torrent at the maximum
//     rate the tracker allows (one query per 10–15 minutes per vantage),
//     from several vantage points, recording every returned IP address;
//  4. stop monitoring a torrent after 10 consecutive empty replies.
//
// The crawler is a single-goroutine state machine on its shard's
// simclock.Sim: every poll, fetch, announce and probe runs inside a clock
// callback on the goroutine advancing the clock, so the crawler holds no
// lock and starts no goroutine. The vantages take turns on that one
// clock, and a query's full effect is recorded before the clock
// proceeds, against in-process clients or live HTTP endpoints alike.
package crawler

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"time"

	"btpub/internal/dataset"
	"btpub/internal/ecosystem"
	"btpub/internal/metainfo"
	"btpub/internal/portal"
	"btpub/internal/simclock"
	"btpub/internal/tracker"
)

// PortalClient is the crawler's view of a BitTorrent portal.
type PortalClient interface {
	// FetchRSS returns the current feed items.
	FetchRSS(ctx context.Context) ([]portal.FeedItem, error)
	// FetchTorrent downloads a .torrent by its feed URL.
	FetchTorrent(ctx context.Context, url string) ([]byte, error)
	// FetchPage scrapes a torrent detail page by its feed URL. Removed
	// torrents return portal.ErrNotFound.
	FetchPage(ctx context.Context, url string) (*portal.PageData, error)
	// FetchUserPage scrapes an account page; suspended/unknown accounts
	// return portal.ErrNotFound.
	FetchUserPage(ctx context.Context, username string) (*portal.UserPageData, error)
}

// TrackerClient announces to a tracker from a numbered vantage point.
type TrackerClient interface {
	Announce(ctx context.Context, announceURL string, ih metainfo.Hash, vantage int, numWant int) (*tracker.AnnounceResponse, error)
}

// The instrument's fixed settings, Section 2's numbers.
const (
	// rssPoll is the feed polling period.
	rssPoll = 10 * time.Minute
	// queryInterval is the per-vantage tracker query period (the tracker
	// enforces at least 10 min).
	queryInterval = 15 * time.Minute
	// emptyToStop is the consecutive-empty-replies stop rule.
	emptyToStop = 10
	// numWant is the peer count requested per query, the tracker maximum.
	numWant = 200
	// identifyMaxPeers bounds swarm size for initial-seeder identification.
	identifyMaxPeers = 20
	// dedupWindow drops repeat sightings of the same IP in the same
	// torrent within the window. Session stitching uses a 4 h gap, so
	// sub-window repeats carry no analysis signal; thinning keeps dataset
	// size proportional to distinct peer-sessions, not to query volume.
	dedupWindow = 45 * time.Minute
)

// Config tunes the instrument. The defaults reproduce the pb10 campaign;
// SingleShot reproduces pb09 (one tracker query per torrent) and
// RecordUsernames=false reproduces mn08 (no username information).
type Config struct {
	DatasetName string

	// Vantages is the number of crawling machines (default 3). They query
	// with staggered phases, multiplying the effective sampling rate the
	// way the paper's geographically distributed machines did.
	Vantages int
	// SingleShot stops after the first tracker query per torrent (pb09).
	SingleShot bool
	// RecordUsernames toggles username capture (false for mn08).
	RecordUsernames bool
	// End stops all crawling activity at this instant (campaign end).
	End time.Time
	// Sink, when non-nil, mirrors every stored observation to an external
	// consumer (e.g. a lake writer) at the moment it is recorded, in
	// recording order, on the goroutine advancing the clock: it must not
	// call back into the crawler. TorrentIDs are crawler-local; callers
	// offset them into a global space.
	Sink func(tid int, addr netip.Addr, at time.Time, seeder bool)
}

func (c *Config) setDefaults() {
	if c.DatasetName == "" {
		c.DatasetName = "crawl"
	}
	if c.Vantages <= 0 {
		c.Vantages = 3
	}
}

// Counters summarise crawler activity.
type Counters struct {
	RSSPolls          int
	TorrentsSeen      int
	TrackerQueries    int
	RateLimited       int
	WireProbes        int
	PublishersByIP    int
	MonitoringStopped int
}

// Add returns the element-wise sum of two counter snapshots (used to
// aggregate per-shard crawlers into campaign totals).
func (a Counters) Add(b Counters) Counters {
	return Counters{
		RSSPolls:          a.RSSPolls + b.RSSPolls,
		TorrentsSeen:      a.TorrentsSeen + b.TorrentsSeen,
		TrackerQueries:    a.TrackerQueries + b.TrackerQueries,
		RateLimited:       a.RateLimited + b.RateLimited,
		WireProbes:        a.WireProbes + b.WireProbes,
		PublishersByIP:    a.PublishersByIP + b.PublishersByIP,
		MonitoringStopped: a.MonitoringStopped + b.MonitoringStopped,
	}
}

// Crawler is the measurement engine. It is not safe for concurrent use:
// after Start only the goroutine advancing its clock may touch it.
type Crawler struct {
	cfg     Config
	clock   *simclock.Sim
	portal  PortalClient
	tracker TrackerClient
	prober  ecosystem.Prober // may be nil: skip wire identification

	// ctx is Start's context: every fetch, announce and probe runs under
	// it, and once it is cancelled the crawler stops querying.
	ctx   context.Context
	ctr   Counters
	ds    *dataset.Dataset
	known map[string]bool // feed GUID -> seen
}

// New builds a crawler on clock. prober may be nil, in which case
// publisher IPs are never identified (username-only datasets).
func New(cfg Config, clock *simclock.Sim, pc PortalClient, tc TrackerClient, prober ecosystem.Prober) (*Crawler, error) {
	if clock == nil || pc == nil || tc == nil {
		return nil, errors.New("crawler: clock, portal and tracker clients are required")
	}
	cfg.setDefaults()
	return &Crawler{
		cfg:     cfg,
		clock:   clock,
		portal:  pc,
		tracker: tc,
		prober:  prober,
		ds:      &dataset.Dataset{Name: cfg.DatasetName},
		known:   map[string]bool{},
	}, nil
}

// Start begins polling at the clock's current time; ctx governs the whole
// crawl. Must be called once.
func (c *Crawler) Start(ctx context.Context) error {
	if c.ctx != nil {
		return errors.New("crawler: already started")
	}
	c.ctx = ctx
	c.ds.Start = c.clock.Now()
	c.clock.Schedule(c.ds.Start, c.pollRSS)
	return nil
}

// Dataset returns the crawl result so far. The End stamp is set to the
// current clock time.
func (c *Crawler) Dataset() *dataset.Dataset {
	c.ds.End = c.clock.Now()
	return c.ds
}

// Stats returns activity counters.
func (c *Crawler) Stats() Counters {
	return c.ctr
}

func (c *Crawler) ended(now time.Time) bool {
	return !c.cfg.End.IsZero() && now.After(c.cfg.End)
}

// pollRSS fires on every feed poll tick.
func (c *Crawler) pollRSS(now time.Time) {
	if c.ended(now) || c.ctx.Err() != nil {
		// Campaign over or cancelled: stop re-arming the poll loop.
		return
	}
	items, err := c.portal.FetchRSS(c.ctx)
	c.ctr.RSSPolls++
	if err == nil {
		for i := range items {
			item := items[i]
			if !c.known[item.GUID] {
				c.known[item.GUID] = true
				c.handleNewTorrent(now, &item)
			}
		}
	}
	c.clock.Schedule(now.Add(rssPoll), c.pollRSS)
}

// handleNewTorrent processes a freshly announced feed item.
func (c *Crawler) handleNewTorrent(now time.Time, item *portal.FeedItem) {
	raw, err := c.portal.FetchTorrent(c.ctx, item.TorrentURL)
	if err != nil {
		return // removed between feed generation and fetch
	}
	mi, err := metainfo.Parse(raw)
	if err != nil {
		return
	}
	ih, err := mi.InfoHash()
	if err != nil {
		return
	}

	rec := &dataset.TorrentRecord{
		InfoHash:  ih.String(),
		Title:     item.Title,
		Category:  item.Category,
		SizeBytes: item.SizeBytes,
		FileName:  mi.Info.Name,
		Published: item.Published,
	}
	if c.cfg.RecordUsernames {
		rec.Username = item.Username
	}
	// Scrape the detail page for the description textbox and file list
	// (promo-URL channels ii and iii).
	if page, err := c.portal.FetchPage(c.ctx, item.PageURL); err == nil {
		rec.Description = page.Description
		if len(page.Files) > 1 {
			rec.BundledFiles = page.Files[1:]
		}
	}

	rec.TorrentID = len(c.ds.Torrents)
	c.ds.AddTorrent(rec)
	c.ctr.TorrentsSeen++

	st := &torrentState{
		rec:       rec,
		announce:  mi.Announce,
		ih:        ih,
		numPieces: mi.Info.NumPieces(),
		lastSeen:  map[netip.Addr]time.Time{},
	}
	// One requery callback per vantage for the whole monitoring lifetime;
	// per-query closures were a top campaign allocator.
	st.requery = make([]func(time.Time), c.cfg.Vantages)
	for v := range st.requery {
		v := v
		st.requery[v] = func(t time.Time) { c.queryTracker(t, st, v, false) }
	}
	// First contact immediately, from vantage 0.
	c.queryTracker(now, st, 0, true)
	if c.cfg.SingleShot {
		return
	}
	// Staggered periodic queries from every vantage.
	for v := 1; v < c.cfg.Vantages; v++ {
		offset := time.Duration(v) * queryInterval / time.Duration(c.cfg.Vantages)
		c.clock.Schedule(now.Add(offset), st.requery[v])
	}
	c.clock.Schedule(now.Add(queryInterval), st.requery[0])
}

// torrentState is the per-torrent monitoring state.
type torrentState struct {
	rec       *dataset.TorrentRecord
	announce  string
	ih        metainfo.Hash
	numPieces int
	// requery holds the per-vantage reschedule callbacks, allocated once.
	requery []func(time.Time)

	empty   int
	stopped bool
	// lastSeen is keyed by the parsed address: dedup never needs the
	// string form, so repeat sightings cost no allocation.
	lastSeen map[netip.Addr]time.Time
}

// reschedule books the vantage's next query for the torrent.
func (c *Crawler) reschedule(now time.Time, st *torrentState, vantage int) {
	if !c.cfg.SingleShot {
		c.clock.Schedule(now.Add(queryInterval), st.requery[vantage])
	}
}

// queryTracker runs one announce for one torrent from one vantage and
// books that vantage's next query. first marks the torrent's first
// contact, whose swarm snapshot drives initial-seeder identification.
func (c *Crawler) queryTracker(now time.Time, st *torrentState, vantage int, first bool) {
	if c.ended(now) || st.stopped || c.ctx.Err() != nil {
		return
	}
	resp, err := c.tracker.Announce(c.ctx, st.announce, st.ih, vantage, numWant)
	c.ctr.TrackerQueries++

	if err != nil {
		var fe *tracker.ErrFailure
		if errors.As(err, &fe) && fe.IsRateLimited() || errors.Is(err, tracker.ErrTooSoon) {
			c.ctr.RateLimited++
			c.reschedule(now, st, vantage)
			return
		}
		// Unknown swarm or transport failure: count toward the stop rule.
		c.noteEmpty(st)
		c.reschedule(now, st, vantage)
		return
	}

	// Record the first-contact swarm snapshot and attempt initial-seeder
	// identification (Section 2's single-seeder small-swarm rule).
	if first {
		st.rec.FirstSeenSeeders = resp.Seeders
		st.rec.FirstSeenPeers = resp.Seeders + resp.Leechers
		if resp.Seeders == 1 && resp.Seeders+resp.Leechers < identifyMaxPeers {
			c.identifySeeder(st, resp.Peers)
		}
	}

	if len(resp.Peers) == 0 {
		c.noteEmpty(st)
		c.reschedule(now, st, vantage)
		return
	}
	st.empty = 0
	for _, p := range resp.Peers {
		if last, ok := st.lastSeen[p.IP]; ok && now.Sub(last) < dedupWindow {
			continue
		}
		st.lastSeen[p.IP] = now
		// Columnar append: the address string is computed only the first
		// time this crawler sees the IP, then shared via the intern table.
		c.ds.Obs.AppendAddr(st.rec.TorrentID, p.IP, now, false)
		if c.cfg.Sink != nil {
			c.cfg.Sink(st.rec.TorrentID, p.IP, now, false)
		}
	}
	c.reschedule(now, st, vantage)
}

// noteEmpty advances the 10-consecutive-empty-replies stop rule.
func (c *Crawler) noteEmpty(st *torrentState) {
	st.empty++
	if st.empty >= emptyToStop*c.cfg.Vantages && !st.stopped {
		// Each vantage contributes replies; stop after the equivalent of
		// emptyToStop empty rounds across the aggregate.
		st.stopped = true
		c.ctr.MonitoringStopped++
	}
}

// identifySeeder probes the returned peers over the wire protocol and
// records the address of the unique seeder, when reachable.
func (c *Crawler) identifySeeder(st *torrentState, peers []tracker.PeerAddr) {
	if c.prober == nil {
		return
	}
	var seederIP netip.Addr
	found := 0
	for _, p := range peers {
		res, err := c.prober.Probe(c.ctx, p.IP, st.ih, st.numPieces)
		c.ctr.WireProbes++
		if err != nil {
			continue // NATed or gone
		}
		if res.Seeder {
			seederIP = p.IP
			found++
		}
	}
	// Only a unique, reachable complete peer counts as the identified
	// initial publisher.
	if found == 1 {
		c.ctr.PublishersByIP++
		now := c.clock.Now()
		st.rec.PublisherIP = seederIP.String()
		c.ds.Obs.AppendAddr(st.rec.TorrentID, seederIP, now, true)
		if c.cfg.Sink != nil {
			c.cfg.Sink(st.rec.TorrentID, seederIP, now, true)
		}
	}
}

// FinalSweep enriches the dataset after the campaign: re-checks every
// recorded torrent's page (removed pages mark the record Removed — the
// fake-content signal) and, when usernames were recorded, scrapes every
// username's account page for the longitudinal analysis (Table 4), in the
// order of each username's first torrent. Suspended accounts yield a
// UserRecord with Exists=false.
func (c *Crawler) FinalSweep(ctx context.Context, pageURL func(rec *dataset.TorrentRecord) string) error {
	for _, rec := range c.ds.Torrents {
		if _, err := c.portal.FetchPage(ctx, pageURL(rec)); err != nil {
			if errors.Is(err, portal.ErrNotFound) {
				rec.Removed = true
				continue
			}
			return fmt.Errorf("crawler: final sweep page: %w", err)
		}
	}
	swept := map[string]bool{}
	for _, t := range c.ds.Torrents {
		u := t.Username
		if u == "" || swept[u] {
			continue
		}
		swept[u] = true
		up, err := c.portal.FetchUserPage(ctx, u)
		rec := dataset.UserRecord{Username: u}
		switch {
		case errors.Is(err, portal.ErrNotFound):
			rec.Exists = false
		case err != nil:
			return fmt.Errorf("crawler: final sweep user %q: %w", u, err)
		default:
			rec.Exists = true
			rec.MemberSince = up.MemberSince
			rec.FirstUpload = up.FirstUpload
			rec.TotalUploads = up.UploadCount
		}
		c.ds.Users = append(c.ds.Users, rec)
	}
	return nil
}

// Package lakeserve serves the paper's analysis over a live observation
// lake: an HTTP API whose answers come from cached analysis snapshots
// keyed by the lake's manifest version. Requests never block behind a
// writer. One build lock owns the build path (maintainer refresh, alert
// evaluation, classification): the synchronous first build and every
// background rebuild hold it, so builds run one at a time in version
// order, a first request that finds a background build running waits
// for its result, and a snapshot is built at most once per committed
// lake version — on a cold start too. Stale snapshots keep serving while
// the rebuild runs, and raw observation queries go through the unified
// query engine (internal/query) with zone-map pushdown instead of
// touching the analysis at all. Every torrent ID on /api/v1 is the
// lake's.
//
// Every endpoint lives under the versioned /api/v1 prefix (see api.go):
//
//	POST /api/v1/query                       composable query (JSON in/out, cursor pagination)
//	GET  /api/v1/stats                       lake + snapshot status (JSON)
//	GET  /api/v1/alerts?since=0&wait=30s     fake/scam alert feed (cursor + long-poll)
//	GET  /api/v1/tables/1                    Table 1, dataset description
//	GET  /api/v1/tables/2?n=10               Table 2, publishers per ISP
//	GET  /api/v1/tables/3?isps=OVH,Comcast   Table 3, hosting vs commercial
//	GET  /api/v1/top-publishers?n=20         top publishers (JSON)
//	GET  /api/v1/publishers/classified?n=20  Section 5.1 business classes (JSON)
//	GET  /api/v1/publishers/{name}           one publisher: signals, IPs, ISPs, promoted site (JSON)
//	GET  /api/v1/fakes?n=50                  fake publishers and cohorts (JSON)
//	GET  /api/v1/torrents/recent?n=50        latest publications, newest first (JSON)
//	GET  /api/v1/torrents/{id}/observations  one torrent's sightings (a canned query)
//
// Tables render as text by default (curl-friendly, identical to the
// btpub-analyze output); ?format=json returns the underlying rows. Every
// 4xx/5xx response carries the {"error": {"code", "message"}} envelope.
package lakeserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"btpub/internal/alert"
	"btpub/internal/analysis"
	"btpub/internal/classify"
	"btpub/internal/delta"
	"btpub/internal/geoip"
	"btpub/internal/lake"
	"btpub/internal/population"
	"btpub/internal/query"
)

// Server is the HTTP query interface over one lake.
type Server struct {
	Lake *lake.Lake
	Geo  *geoip.DB
	// TopK is the top-publisher cut passed to analysis.New (0 = the
	// paper's 3 % rule).
	TopK int
	// MaxConcurrent bounds the API requests allowed in flight at once;
	// excess requests are answered 429 with Retry-After instead of
	// queuing (0 = DefaultMaxConcurrent, negative = unlimited).
	MaxConcurrent int
	// RequestTimeout bounds one request's wall time; expiry answers 503
	// with the "timeout" envelope (0 = DefaultRequestTimeout, negative =
	// none). /healthz and /readyz are exempt from both bounds.
	RequestTimeout time.Duration
	// RefreshBackoff is the base delay before retrying a failed snapshot
	// rebuild; it doubles per consecutive failure up to 64× (0 =
	// DefaultRefreshBackoff).
	RefreshBackoff time.Duration
	// AlertNotifier, when set, receives the alerts each refresh materially
	// changed (fired, re-fired, resolved, or with new evidence). Alert
	// state is committed to the store before delivery, so a failing
	// notifier degrades push, never /api/v1/alerts.
	AlertNotifier alert.Notifier

	insp       atomic.Pointer[classify.SiteInspector]
	inspGen    atomic.Uint64
	snap       atomic.Pointer[snapshot]
	refreshing atomic.Bool // one background rebuild kicked or running
	refresh    refreshState

	// buildMu owns the build path: the synchronous first build and every
	// background rebuild hold it across maintainer refresh, alert
	// evaluation and classification, so builds run one at a time, in
	// version order. evaluated is the maintainer snapshot the alert
	// engine last scored.
	buildMu   sync.Mutex
	evaluated *delta.Snapshot

	// Built once by setup (resilience.go): the incremental maintainer and
	// the alert engine behind it, the lake-backed query executor behind
	// /api/v1/query and the canned observation endpoint, and the
	// lifecycle context background rebuilds run under (Close cancels it).
	setupOnce sync.Once
	maint     *delta.Maintainer
	alerts    *alert.Engine
	exec      *query.Lake
	execErr   error
	lifeCtx   context.Context
	lifeStop  context.CancelFunc
}

// SetInspector sets or swaps the inspector that resolves promoted URLs
// for /publishers/classified (e.g. a webmon.Directory over a live
// campaign's world). Without one, promoted sites are treated as vanished:
// promoters still classify, but as OtherWeb. The generation bump marks
// the cached snapshot stale, so the next request re-classifies with the
// new inspector — even if a rebuild that captured the old one is in
// flight and stores its result after this call.
func (s *Server) SetInspector(insp classify.SiteInspector) {
	s.insp.Store(&insp)
	s.inspGen.Add(1)
}

func (s *Server) inspector() classify.SiteInspector {
	if p := s.insp.Load(); p != nil && *p != nil {
		return *p
	}
	return vanishedSites{}
}

// vanishedSites stands in when no inspector is configured: every promoted
// URL reports unreachable, which ClassifyBusiness treats as a vanished
// site — the publisher still counts as a promoter.
type vanishedSites struct{}

func (vanishedSites) Inspect(string) (population.BusinessType, string, error) {
	return population.BusinessNone, "", errors.New("lakeserve: no site inspector configured")
}

// snapshot is one cached analysis over a committed lake version, plus the
// Section 5 classification over the alias-merged publisher facts.
type snapshot struct {
	version uint64
	inspGen uint64 // inspector generation the classification used
	builtAt time.Time
	an      *analysis.Analysis
	// profiles classifies the top group of the alias-merged view (alias
	// clusters — usernames sharing identified seeder IPs — folded into
	// operator-level entities); clusters keeps the raw memberships.
	profiles []classify.BusinessProfile
	clusters []classify.AliasCluster
	// lakeIDs[ct] is canonical torrent ct's lake ID, the one every
	// /api/v1 torrent ID means.
	lakeIDs []int
}

// Snapshot returns an analysis no older than the lake version at some
// point during this call. The first call builds synchronously (or waits
// for the background build already running); later calls return the
// cached snapshot immediately and, when it is stale, kick exactly one
// background rebuild — many concurrent requests over a live lake each
// pay a pointer load, not an index build.
func (s *Server) Snapshot(r *http.Request) (*analysis.Analysis, uint64, error) {
	snap, err := s.classified(r)
	if err != nil {
		return nil, 0, err
	}
	return snap.an, snap.version, nil
}

// classified returns the cached snapshot (analysis plus the Section 5
// views), kicking one background rebuild when it is stale. Before the
// first snapshot exists it builds under buildMu — or, when a background
// build already holds the lock, waits for that build's result.
func (s *Server) classified(r *http.Request) (*snapshot, error) {
	if cur := s.snap.Load(); cur != nil {
		if s.stale(cur) {
			s.refreshAsync()
		}
		return cur, nil
	}
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	if cur := s.snap.Load(); cur != nil {
		return cur, nil
	}
	snap, err := s.build(r.Context())
	if err != nil {
		return nil, err
	}
	s.snap.Store(snap)
	return snap, nil
}

// stale reports whether the snapshot lags the lake or the inspector.
func (s *Server) stale(cur *snapshot) bool {
	return cur.version != s.Lake.Version() || cur.inspGen != s.inspGen.Load()
}

// markSnapshot stamps snapshot provenance on a response so clients can
// tell fresh answers from degraded ones: the snapshot's lake version
// always, a staleness flag when it lags the live lake, and a degraded
// marker when the lag is caused by failing rebuilds rather than normal
// refresh latency.
func (s *Server) markSnapshot(w http.ResponseWriter, snap *snapshot) {
	w.Header().Set("X-Btpub-Snapshot-Version", strconv.FormatUint(snap.version, 10))
	if s.stale(snap) {
		w.Header().Set("X-Btpub-Snapshot-Stale", "true")
		if s.refresh.lastError() != "" {
			w.Header().Set("X-Btpub-Degraded", "rebuild-failed")
		}
	}
}

// snapshotFor is the handler-side accessor: the cached snapshot plus
// its provenance headers on w.
func (s *Server) snapshotFor(w http.ResponseWriter, r *http.Request) (*snapshot, error) {
	snap, err := s.classified(r)
	if err != nil {
		return nil, err
	}
	s.markSnapshot(w, snap)
	return snap, nil
}

// build brings the analysis to the lake head and classifies it; the
// caller holds buildMu. When the maintainer moved past the snapshot the
// alert engine last scored, build logs the refresh path, scores the
// identities the refresh touched and hands the alerts that changed to
// the notifier — a slow Notifier back-pressures the build, so wrap it
// in a goroutine of your own if delivery may stall.
func (s *Server) build(ctx context.Context) (*snapshot, error) {
	s.setup()
	// The inspector-generation read is only a conservative floor: a swap
	// can land between it and the refresh, so the snapshot would carry a
	// classification newer than its stamp and trigger one redundant
	// rebuild — never a stale-forever cache. The maintainer reports the
	// journal version it actually served; commits landing after it just
	// leave the snapshot stale, exactly as before.
	gen := s.inspGen.Load()
	dsnap, err := s.maint.Refresh(ctx)
	if err != nil {
		return nil, err
	}
	if dsnap != s.evaluated {
		if dsnap.Mode == delta.ModeDelta {
			log.Printf("lakeserve: snapshot refresh v%d mode=delta (+%d segments, +%d observations): %s",
				dsnap.Version, dsnap.DeltaSegments, dsnap.DeltaObs, dsnap.Reason)
		} else {
			log.Printf("lakeserve: snapshot refresh v%d mode=full: %s", dsnap.Version, dsnap.Reason)
		}
		changed := s.alerts.Evaluate(dsnap)
		s.evaluated = dsnap
		if len(changed) > 0 && s.AlertNotifier != nil {
			if err := s.AlertNotifier.Notify(ctx, changed); err != nil {
				log.Printf("lakeserve: alert notifier failed (%d alerts): %v", len(changed), err)
			}
		}
	}
	an := dsnap.An
	clusters := an.Facts.AliasClusters()
	merged := an.Facts.MergeAliasClusters(clusters)
	groups := merged.BuildGroups(s.TopK, 0)
	profiles, err := classify.ClassifyBusiness(merged, groups, s.inspector())
	if err != nil {
		return nil, err
	}
	return &snapshot{
		version:  dsnap.Version,
		inspGen:  gen,
		builtAt:  time.Now().UTC(),
		an:       an,
		profiles: profiles,
		clusters: clusters,
		lakeIDs:  dsnap.LakeIDs,
	}, nil
}

// version reports the cached snapshot's version (0 = none yet).
func (s *Server) version() uint64 {
	if cur := s.snap.Load(); cur != nil {
		return cur.version
	}
	return 0
}

// StatsResponse is the /stats document.
type StatsResponse struct {
	Lake lake.Stats `json:"lake"`
	// AnalysisVersion is the lake version the cached analysis reflects
	// (0 = not built yet); a value behind Lake.Version means a refresh
	// is pending or in flight.
	AnalysisVersion uint64    `json:"analysis_version"`
	AnalysisBuilt   time.Time `json:"analysis_built,omitempty"`
	// RefreshState reports the background rebuild machinery: "idle",
	// "rebuilding" (one in flight), or "backoff" (the last rebuild
	// failed and the breaker is waiting before the next attempt).
	RefreshState string `json:"refresh_state"`
	// LastRefreshError is the most recent rebuild failure, cleared by
	// the next successful rebuild. Non-empty means stale answers are
	// being served because of it, not by normal refresh lag.
	LastRefreshError string `json:"last_refresh_error,omitempty"`
	// Stale reports that the cached analysis (if any) lags the lake or
	// the inspector — snapshot-backed answers carry the
	// X-Btpub-Snapshot-Stale header while this is true.
	Stale bool `json:"stale"`
	// The embedded maintainer counters: refresh_mode ("full"/"delta"),
	// delta_refreshes, full_rebuilds, last_refresh_reason, the size of
	// the last folded delta (last_delta_segments,
	// last_delta_observations) and the wall time of the last refresh
	// (last_refresh_ms).
	delta.Stats
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{Lake: s.Lake.Stats(), RefreshState: "idle", Stale: true}
	s.setup()
	resp.Stats = s.maint.Stats()
	if s.refreshing.Load() {
		resp.RefreshState = "rebuilding"
	} else if s.refresh.open() {
		resp.RefreshState = "backoff"
	}
	resp.LastRefreshError = s.refresh.lastError()
	if cur := s.snap.Load(); cur != nil {
		resp.AnalysisVersion = cur.version
		resp.AnalysisBuilt = cur.builtAt
		resp.Stale = s.stale(cur)
	}
	writeJSON(w, resp)
}

func (s *Server) handleTable1(w http.ResponseWriter, r *http.Request) {
	format, err := reqParams(r).format()
	if err != nil {
		fail(w, err)
		return
	}
	snap, err := s.snapshotFor(w, r)
	if err != nil {
		fail(w, err)
		return
	}
	sum := snap.an.Summary()
	if format == "json" {
		writeJSON(w, sum)
		return
	}
	writeText(w, analysis.RenderSummary([]analysis.DatasetSummary{sum}))
}

func (s *Server) handleTable2(w http.ResponseWriter, r *http.Request) {
	p := reqParams(r)
	format, err := p.format()
	if err != nil {
		fail(w, err)
		return
	}
	n, err := p.count("n", 10)
	if err != nil {
		fail(w, err)
		return
	}
	snap, err := s.snapshotFor(w, r)
	if err != nil {
		fail(w, err)
		return
	}
	rows := snap.an.ISPTable(n)
	if format == "json" {
		writeJSON(w, rows)
		return
	}
	writeText(w, analysis.RenderISPTable(snap.an.DS.Name, rows))
}

func (s *Server) handleTable3(w http.ResponseWriter, r *http.Request) {
	p := reqParams(r)
	format, err := p.format()
	if err != nil {
		fail(w, err)
		return
	}
	names, err := p.list("isps")
	if err != nil {
		fail(w, err)
		return
	}
	if names == nil {
		names = []string{geoip.OVH, geoip.Comcast}
	}
	snap, err := s.snapshotFor(w, r)
	if err != nil {
		fail(w, err)
		return
	}
	rows := snap.an.ContrastISPs(names...)
	if format == "json" {
		writeJSON(w, rows)
		return
	}
	writeText(w, analysis.RenderContrast(snap.an.DS.Name, rows))
}

// topRows is the tail every publisher listing shares: rows ordered by
// upload count (descending, then username) and cut to the first n.
func topRows[T any](rows []T, n int, key func(T) (torrents int, username string)) []T {
	sort.Slice(rows, func(i, j int) bool {
		ti, ui := key(rows[i])
		tj, uj := key(rows[j])
		if ti != tj {
			return ti > tj
		}
		return ui < uj
	})
	if n < len(rows) {
		rows = rows[:n]
	}
	return rows
}

// TopPublisher is one /top-publishers row.
type TopPublisher struct {
	Username string `json:"username"`
	Torrents int    `json:"torrents"`
	// Downloads counts distinct downloader IPs across the publisher's
	// torrents.
	Downloads int  `json:"downloads"`
	Fake      bool `json:"fake"`
}

func (s *Server) handleTopPublishers(w http.ResponseWriter, r *http.Request) {
	n, err := reqParams(r).count("n", 20)
	if err != nil {
		fail(w, err)
		return
	}
	snap, err := s.snapshotFor(w, r)
	if err != nil {
		fail(w, err)
		return
	}
	rows := make([]TopPublisher, 0, len(snap.an.Facts.Users))
	for _, u := range snap.an.Facts.Users {
		rows = append(rows, TopPublisher{
			Username: u.Username, Torrents: len(u.TorrentIDs),
			Downloads: u.Downloads, Fake: u.Fake(),
		})
	}
	writeJSON(w, topRows(rows, n, func(r TopPublisher) (int, string) { return r.Torrents, r.Username }))
}

// ClassifiedPublisher is one /publishers/classified row: a top publisher
// (alias clusters merged into one operator) with its Section 5.1 business
// class.
type ClassifiedPublisher struct {
	Username string `json:"username"`
	Class    string `json:"class"`
	URL      string `json:"url,omitempty"`
	Language string `json:"language,omitempty"`
	Torrents int    `json:"torrents"`
	// Downloads counts distinct downloader IPs across the operator's
	// torrents.
	Downloads int `json:"downloads"`
	// Channels counts promo sightings per channel name.
	Channels map[string]int `json:"channels,omitempty"`
	// Aliases lists every username folded into this operator when it is
	// an alias cluster.
	Aliases []string `json:"aliases,omitempty"`
}

func (s *Server) handleClassified(w http.ResponseWriter, r *http.Request) {
	n, err := reqParams(r).count("n", 20)
	if err != nil {
		fail(w, err)
		return
	}
	snap, err := s.snapshotFor(w, r)
	if err != nil {
		fail(w, err)
		return
	}
	clusterOf := map[string][]string{}
	for _, c := range snap.clusters {
		clusterOf[c.Usernames[0]] = c.Usernames
	}
	rows := make([]ClassifiedPublisher, 0, len(snap.profiles))
	for _, p := range snap.profiles {
		row := ClassifiedPublisher{
			Username:  p.Username,
			Class:     p.Class.String(),
			URL:       p.URL,
			Language:  p.Language,
			Torrents:  p.Torrents,
			Downloads: p.Downloads,
			Aliases:   clusterOf[p.Username],
		}
		if len(p.Channels) > 0 {
			row.Channels = map[string]int{}
			for ch, c := range p.Channels {
				row.Channels[ch.String()] = c
			}
		}
		rows = append(rows, row)
	}
	writeJSON(w, topRows(rows, n, func(r ClassifiedPublisher) (int, string) { return r.Torrents, r.Username }))
}

// FakePublisher is one /fakes row: a username carrying the fake signals —
// its own account deletion or takedown majority, or membership in an
// alias cluster (cohort) flagged as one fake operation.
type FakePublisher struct {
	Username        string `json:"username"`
	Torrents        int    `json:"torrents"`
	RemovedTorrents int    `json:"removed_torrents"`
	AccountDeleted  bool   `json:"account_deleted"`
	Downloads       int    `json:"downloads"`
	// Cohort lists the alias-linked usernames flagged together; SharedIPs
	// are the seeder IPs that link them.
	Cohort    []string `json:"cohort,omitempty"`
	SharedIPs []string `json:"shared_ips,omitempty"`
}

// fakeSignals assembles one identity's row; c is the fake cohort it
// belongs to, if any.
func fakeSignals(u *classify.UserFacts, c *classify.AliasCluster) FakePublisher {
	row := FakePublisher{
		Username:        u.Username,
		Torrents:        len(u.TorrentIDs),
		RemovedTorrents: u.RemovedTorrents,
		AccountDeleted:  u.AccountDeleted,
		Downloads:       u.Downloads,
	}
	if c != nil {
		row.Cohort = c.Usernames
		row.SharedIPs = c.SharedIPs
	}
	return row
}

func (s *Server) handleFakes(w http.ResponseWriter, r *http.Request) {
	n, err := reqParams(r).count("n", 50)
	if err != nil {
		fail(w, err)
		return
	}
	snap, err := s.snapshotFor(w, r)
	if err != nil {
		fail(w, err)
		return
	}
	facts := snap.an.Facts
	fakeCluster := map[string]*classify.AliasCluster{}
	for i := range snap.clusters {
		c := &snap.clusters[i]
		if !c.Fake {
			continue
		}
		for _, name := range c.Usernames {
			fakeCluster[name] = c
		}
	}
	var rows []FakePublisher
	for name, u := range facts.Users {
		c := fakeCluster[name]
		if !u.Fake() && c == nil {
			continue
		}
		rows = append(rows, fakeSignals(u, c))
	}
	writeJSON(w, topRows(rows, n, func(r FakePublisher) (int, string) { return r.Torrents, r.Username }))
}

// PublisherDetail is the /publishers/{name} document, the paper's
// per-publisher page: everything the snapshot holds about one identity
// (a portal username, or "ip:<addr>" for username-less records).
type PublisherDetail struct {
	// The moderation signals and fake cohort exactly as /fakes reports
	// them; the identity has a /fakes row iff Fake is set or Cohort is not
	// empty.
	FakePublisher
	// Fake is the identity's own verdict, as in /top-publishers.
	Fake bool `json:"fake"`
	// IPs are the identified initial-seeder addresses, ISPs their
	// distinct providers.
	IPs         []string  `json:"ips,omitempty"`
	ISPs        []string  `json:"isps,omitempty"`
	FirstUpload time.Time `json:"first_upload"`
	LastUpload  time.Time `json:"last_upload"`
	// PromoURL is the site the identity's latest promoting upload names.
	PromoURL string `json:"promo_url,omitempty"`
	// Aliases lists the alias cluster (usernames linked through shared
	// seeder IPs) the identity belongs to, flagged fake or not.
	Aliases []string `json:"aliases,omitempty"`
	// Class, URL and Language are the operator's /publishers/classified
	// row, present when the operator is in the top group.
	Class    string `json:"class,omitempty"`
	URL      string `json:"url,omitempty"`
	Language string `json:"language,omitempty"`
}

func (s *Server) handlePublisher(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	snap, err := s.snapshotFor(w, r)
	if err != nil {
		fail(w, err)
		return
	}
	u := snap.an.Facts.Users[name]
	if u == nil {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no publisher %q in snapshot version %d", name, snap.version))
		return
	}
	row := PublisherDetail{Fake: u.Fake(), IPs: u.IPs}
	// A name sits in at most one cluster. The cluster's first username
	// keys the merged operator the classification ran over; only a flagged
	// cluster is a /fakes cohort.
	operator := name
	var cohort *classify.AliasCluster
	for i := range snap.clusters {
		if c := &snap.clusters[i]; slices.Contains(c.Usernames, name) {
			row.Aliases, operator = c.Usernames, c.Usernames[0]
			if c.Fake {
				cohort = c
			}
			break
		}
	}
	row.FakePublisher = fakeSignals(u, cohort)
	for _, rec := range u.ISPs {
		row.ISPs = append(row.ISPs, rec.ISP)
	}
	slices.Sort(row.ISPs)
	row.ISPs = slices.Compact(row.ISPs)
	row.FirstUpload, row.LastUpload, _ = snap.an.UploadTimes(u)
	for _, tid := range u.TorrentIDs {
		if url, _ := classify.ExtractPromo(snap.an.DS.Torrents[tid]); url != "" {
			row.PromoURL = url
		}
	}
	for _, p := range snap.profiles {
		if p.Username == operator {
			row.Class, row.URL, row.Language = p.Class.String(), p.URL, p.Language
		}
	}
	writeJSON(w, row)
}

// RecentTorrent is one /torrents/recent row. Publisher is the identity
// /publishers/{name} answers for. TorrentID is the lake's ID for the
// torrent, like every torrent ID on /api/v1: the one
// /torrents/{id}/observations and /query's torrent_ids filter take.
type RecentTorrent struct {
	TorrentID   int       `json:"torrent_id"`
	InfoHash    string    `json:"info_hash"`
	Title       string    `json:"title"`
	Category    string    `json:"category"`
	Publisher   string    `json:"publisher,omitempty"`
	PublisherIP string    `json:"publisher_ip,omitempty"`
	Published   time.Time `json:"published"`
	Removed     bool      `json:"removed,omitempty"`
}

// handleRecent serves the tail of the snapshot's canonical
// (Published, InfoHash) torrent order, newest first, each row under its
// lake torrent ID.
func (s *Server) handleRecent(w http.ResponseWriter, r *http.Request) {
	n, err := reqParams(r).count("n", 50)
	if err != nil {
		fail(w, err)
		return
	}
	snap, err := s.snapshotFor(w, r)
	if err != nil {
		fail(w, err)
		return
	}
	torrents := snap.an.DS.Torrents
	n = min(n, len(torrents))
	rows := make([]RecentTorrent, n)
	for i := range rows {
		ct := len(torrents) - 1 - i
		rec := torrents[ct]
		rows[i] = RecentTorrent{
			TorrentID: snap.lakeIDs[ct], InfoHash: rec.InfoHash, Title: rec.Title, Category: rec.Category,
			Publisher: rec.PublisherKey(), PublisherIP: rec.PublisherIP, Published: rec.Published, Removed: rec.Removed,
		}
	}
	writeJSON(w, rows)
}

// ObservationRow is one /torrents/{id}/observations element.
type ObservationRow struct {
	IP     string    `json:"ip"`
	At     time.Time `json:"at"`
	Seeder bool      `json:"seeder,omitempty"`
}

// handleObservations is the canned-query reimplementation of the raw
// observation endpoint: one torrent's sightings, expressed as a
// Select-observations Query and answered by the same lake executor as
// POST /api/v1/query (zone-map pushdown included).
func (s *Server) handleObservations(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 0 {
		fail(w, paramErr("bad torrent id %q", r.PathValue("id")))
		return
	}
	limit, err := reqParams(r).count("limit", 1000)
	if err != nil {
		fail(w, err)
		return
	}
	ex, err := s.execQuery()
	if err != nil {
		fail(w, err)
		return
	}
	res, err := ex.Execute(r.Context(), query.Query{
		Select: query.SelectObservations,
		Filter: query.Filter{TorrentIDs: []int{id}},
		Limit:  limit,
	})
	if err != nil {
		fail(w, err)
		return
	}
	rows := make([]ObservationRow, len(res.Observations))
	for i, o := range res.Observations {
		rows[i] = ObservationRow{IP: o.IP, At: o.At, Seeder: o.Seeder}
	}
	writeJSON(w, rows)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

func writeText(w http.ResponseWriter, body string) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = fmt.Fprint(w, body)
}

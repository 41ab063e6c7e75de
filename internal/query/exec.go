// The execution core shared by both executors: a compiled plan, an
// environment resolving observation context (torrent metadata, peer
// geo), and a collector that turns filtered observations into the final
// rows. Executors differ only in how they iterate observations (and
// what they push down); everything that decides row content, grouping,
// ordering and pagination lives here once — which is what makes the
// identical-rows contract between the in-memory and lake-backed paths
// hold by construction rather than by accident.
package query

import (
	"math"
	"slices"
	"strings"

	"btpub/internal/analysis"
	"btpub/internal/dataset"
	"btpub/internal/geoip"
)

// plan is the compiled, normalized form of a query.
type plan struct {
	q            Query // normalized (Select and Aggs defaulted)
	minNs, maxNs int64
	tids         map[int32]bool  // nil = all
	pubs         map[string]bool // nil = all
	ips          map[string]bool
	isps         map[string]bool
	countries    map[string]bool
	bucketNs     int64
	offset       int // decoded cursor
	sig          uint64

	wantObs, wantIPs, wantSeeders, wantTorrents, wantSwarm bool
}

func newPlan(q Query) (*plan, *Error) {
	nq, err := q.normalize()
	if err != nil {
		return nil, err
	}
	p := &plan{q: nq, minNs: math.MinInt64, maxNs: math.MaxInt64, sig: nq.sig()}
	if p.offset, err = decodeCursor(nq.Cursor, p.sig); err != nil {
		return nil, err
	}
	f := nq.Filter
	if !f.MinTime.IsZero() {
		p.minNs = f.MinTime.UnixNano()
	}
	if !f.MaxTime.IsZero() {
		p.maxNs = f.MaxTime.UnixNano()
	}
	if f.TorrentIDs != nil {
		p.tids = make(map[int32]bool, len(f.TorrentIDs))
		for _, id := range f.TorrentIDs {
			p.tids[int32(id)] = true
		}
	}
	p.pubs = stringSet(f.Publishers)
	p.ips = stringSet(f.IPs)
	p.isps = stringSet(f.ISPs)
	p.countries = stringSet(f.Countries)
	p.bucketNs = int64(nq.GroupBy.Bucket)
	for _, a := range nq.Aggs {
		switch a {
		case AggObservations:
			p.wantObs = true
		case AggDistinctIPs:
			p.wantIPs = true
		case AggSeeders:
			p.wantSeeders = true
		case AggTorrents:
			p.wantTorrents = true
		case AggMaxSwarm:
			p.wantSwarm = true
		}
	}
	return p, nil
}

func stringSet(vals []string) map[string]bool {
	if len(vals) == 0 {
		return nil
	}
	set := make(map[string]bool, len(vals))
	for _, v := range vals {
		set[v] = true
	}
	return set
}

// needsMeta reports whether execution must resolve torrent records
// (publisher filter or a metadata-keyed grouping).
func (p *plan) needsMeta() bool {
	return p.pubs != nil || p.q.GroupBy.Key == ByPublisher || p.q.GroupBy.Key == ByContentType
}

// needsGeo reports whether execution must resolve peer addresses.
func (p *plan) needsGeo() bool {
	return p.isps != nil || p.countries != nil ||
		p.q.GroupBy.Key == ByISP || p.q.GroupBy.Key == ByCountry
}

// ---------------------------------------------------------------------
// Environment
// ---------------------------------------------------------------------

// geoRec is one cached peer-address resolution.
type geoRec struct {
	isp, country string
}

// env resolves observation context: torrent metadata pre-resolved once
// from the records the caller supplies, and peer geo memoized per
// distinct address string.
type env struct {
	db   *geoip.DB
	pubs map[int32]string // torrent ID -> publisher key
	cats map[int32]string // torrent ID -> normalized content type
	geo  map[string]geoRec
}

func newEnv(db *geoip.DB, recs []*dataset.TorrentRecord, p *plan) *env {
	e := &env{db: db}
	if p.needsMeta() {
		e.pubs = make(map[int32]string, len(recs))
		e.cats = make(map[int32]string, len(recs))
		for _, rec := range recs {
			tid := int32(rec.TorrentID)
			e.pubs[tid] = rec.PublisherKey()
			e.cats[tid] = analysis.NormalizeCategory(rec.Category)
		}
	}
	if p.needsGeo() {
		e.geo = make(map[string]geoRec)
	}
	return e
}

// geoOf resolves (and memoizes) one peer address. Unresolvable
// addresses yield empty ISP/country — they match no ISP/country filter
// and group under the "" key in both executors.
func (e *env) geoOf(ip string) geoRec {
	if g, ok := e.geo[ip]; ok {
		return g
	}
	var g geoRec
	if addr, err := dataset.ParseIP(ip); err == nil {
		if rec, err := e.db.Lookup(addr); err == nil {
			g = geoRec{isp: rec.ISP, country: rec.Country}
		}
	}
	e.geo[ip] = g
	return g
}

// publisher returns the torrent's publisher key ("" when unknown).
func (e *env) publisher(tid int32) string { return e.pubs[tid] }

// category returns the torrent's normalized content type ("" when the
// torrent has no metadata record).
func (e *env) category(tid int32) string { return e.cats[tid] }

// ---------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------

// groupState accumulates one group's aggregates. Distinct sets hold
// intern-table indices from the collector's own table, so set entries
// are fixed-width regardless of which executor feeds them.
type groupState struct {
	key     string
	obs     int64
	seeders int64
	ips     map[uint32]struct{}
	tids    map[int32]struct{}
	swarms  map[int32]map[uint32]struct{}
}

// obsKey is one raw-mode row in comparable form.
type obsKey struct {
	atNs   int64
	ip     string
	tid    int32
	seeder bool
}

// collector consumes observations in any order, applies the full
// filter, and produces the final deterministic rows: aggregates are
// commutative and finish imposes the total row order. It is not safe
// for concurrent use; each execution feeds its own.
type collector struct {
	p   *plan
	env *env

	ipIDs  map[string]uint32 // collector-local address intern
	groups map[string]*groupState
	obs    []obsKey

	// Key memos: grouped scans hit the same bucket/torrent keys millions
	// of times, so render each distinct key once instead of formatting
	// per observation.
	bucketKeys  map[int64]string
	torrentKeys map[int32]string
}

func newCollector(p *plan, env *env) *collector {
	c := &collector{p: p, env: env}
	if p.q.Select == SelectObservations {
		return c
	}
	c.groups = make(map[string]*groupState)
	if p.wantIPs || p.wantSwarm {
		c.ipIDs = make(map[string]uint32)
	}
	switch p.q.GroupBy.Key {
	case ByTimeBucket:
		c.bucketKeys = make(map[int64]string)
	case ByTorrent:
		c.torrentKeys = make(map[int32]string)
	}
	return c
}

// add offers one observation. The full filter is applied here — an
// executor's pushdown only narrows what reaches add, never replaces a
// check — so both executors accept exactly the same rows.
func (c *collector) add(tid int32, ip string, atNs int64, seeder bool) {
	p := c.p
	if atNs < p.minNs || atNs > p.maxNs {
		return
	}
	if p.tids != nil && !p.tids[tid] {
		return
	}
	if p.q.Filter.SeedersOnly && !seeder {
		return
	}
	if p.ips != nil && !p.ips[ip] {
		return
	}
	if p.pubs != nil && !p.pubs[c.env.publisher(tid)] {
		return
	}
	var g geoRec
	geoDone := false
	if p.isps != nil || p.countries != nil {
		g = c.env.geoOf(ip)
		geoDone = true
		if p.isps != nil && !p.isps[g.isp] {
			return
		}
		if p.countries != nil && !p.countries[g.country] {
			return
		}
	}

	if p.q.Select == SelectObservations {
		c.obs = append(c.obs, obsKey{atNs: atNs, ip: ip, tid: tid, seeder: seeder})
		return
	}

	var key string
	switch p.q.GroupBy.Key {
	case ByPublisher:
		key = c.env.publisher(tid)
	case ByISP:
		if !geoDone {
			g = c.env.geoOf(ip)
		}
		key = g.isp
	case ByCountry:
		if !geoDone {
			g = c.env.geoOf(ip)
		}
		key = g.country
	case ByTorrent:
		var ok bool
		if key, ok = c.torrentKeys[tid]; !ok {
			key = torrentKey(tid)
			c.torrentKeys[tid] = key
		}
	case ByContentType:
		key = c.env.category(tid)
	case ByTimeBucket:
		b := atNs / p.bucketNs
		if atNs%p.bucketNs < 0 { // floor division for pre-1970 instants
			b--
		}
		var ok bool
		if key, ok = c.bucketKeys[b]; !ok {
			key = nsTime(b * p.bucketNs).Format(timeKeyFormat)
			c.bucketKeys[b] = key
		}
	}

	gs := c.group(key)
	gs.obs++
	if seeder {
		gs.seeders++
	}
	if p.wantIPs || p.wantSwarm {
		id := c.internIP(ip)
		if p.wantIPs {
			gs.ips[id] = struct{}{}
		}
		if p.wantSwarm {
			sw := gs.swarms[tid]
			if sw == nil {
				sw = map[uint32]struct{}{}
				gs.swarms[tid] = sw
			}
			sw[id] = struct{}{}
		}
	}
	if p.wantTorrents {
		gs.tids[tid] = struct{}{}
	}
}

// group finds or creates one group's accumulator.
func (c *collector) group(key string) *groupState {
	gs := c.groups[key]
	if gs == nil {
		gs = &groupState{key: key}
		if c.p.wantIPs {
			gs.ips = map[uint32]struct{}{}
		}
		if c.p.wantTorrents {
			gs.tids = map[int32]struct{}{}
		}
		if c.p.wantSwarm {
			gs.swarms = map[int32]map[uint32]struct{}{}
		}
		c.groups[key] = gs
	}
	return gs
}

func (c *collector) internIP(ip string) uint32 {
	if id, ok := c.ipIDs[ip]; ok {
		return id
	}
	id := uint32(len(c.ipIDs))
	c.ipIDs[ip] = id
	return id
}

// finish sorts, paginates and renders the result.
func (c *collector) finish() (*Result, error) {
	if c.p.q.Select == SelectObservations {
		return c.finishObservations()
	}
	return c.finishGroups()
}

func (c *collector) finishObservations() (*Result, error) {
	slices.SortFunc(c.obs, func(a, b obsKey) int {
		if a.atNs != b.atNs {
			if a.atNs < b.atNs {
				return -1
			}
			return 1
		}
		if cmp := strings.Compare(a.ip, b.ip); cmp != 0 {
			return cmp
		}
		if a.tid != b.tid {
			return int(a.tid) - int(b.tid)
		}
		switch {
		case a.seeder == b.seeder:
			return 0
		case b.seeder:
			return -1
		default:
			return 1
		}
	})
	res := &Result{Total: len(c.obs)}
	lo, hi, next := c.page(len(c.obs))
	res.NextCursor = next
	if hi > lo {
		res.Observations = make([]ObsRow, 0, hi-lo)
		for _, o := range c.obs[lo:hi] {
			res.Observations = append(res.Observations, ObsRow{
				TorrentID: int(o.tid),
				IP:        o.ip,
				At:        nsTime(o.atNs),
				Seeder:    o.seeder,
			})
		}
	}
	return res, nil
}

func (c *collector) finishGroups() (*Result, error) {
	p := c.p
	rows := make([]GroupRow, 0, len(c.groups))
	for _, gs := range c.groups {
		aggs := make(map[string]int64, len(p.q.Aggs))
		for _, a := range p.q.Aggs {
			switch a {
			case AggObservations:
				aggs[a] = gs.obs
			case AggSeeders:
				aggs[a] = gs.seeders
			case AggDistinctIPs:
				aggs[a] = int64(len(gs.ips))
			case AggTorrents:
				aggs[a] = int64(len(gs.tids))
			case AggMaxSwarm:
				max := 0
				for _, sw := range gs.swarms {
					if len(sw) > max {
						max = len(sw)
					}
				}
				aggs[a] = int64(max)
			}
		}
		rows = append(rows, GroupRow{Key: gs.key, Aggs: aggs})
	}

	field, desc := p.q.OrderBy.Field, p.q.OrderBy.Desc
	slices.SortFunc(rows, func(a, b GroupRow) int {
		if field != "" && field != "key" {
			va, vb := a.Aggs[field], b.Aggs[field]
			if va != vb {
				less := va < vb
				if desc {
					less = !less
				}
				if less {
					return -1
				}
				return 1
			}
		} else if desc {
			return strings.Compare(b.Key, a.Key)
		}
		return strings.Compare(a.Key, b.Key)
	})

	res := &Result{Total: len(rows)}
	lo, hi, next := c.page(len(rows))
	res.NextCursor = next
	if hi > lo {
		res.Groups = rows[lo:hi]
	}
	return res, nil
}

// page resolves the cursor offset and limit against n total rows.
func (c *collector) page(n int) (lo, hi int, next string) {
	lo = c.p.offset
	if lo > n {
		lo = n
	}
	hi = n
	if l := c.p.q.Limit; l > 0 && lo+l < n {
		hi = lo + l
		next = encodeCursor(hi, c.p.sig)
	}
	return lo, hi, next
}

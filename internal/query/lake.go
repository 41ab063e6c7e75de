// The lake-backed executor: plans each query against the lake's
// committed segment set and streams the surviving segments into one
// collector. The filter is compiled into a lake.Predicate so the lake's
// planner can prune whole segments on zone maps and segment postings and
// order the row predicates cheapest-column-first; publisher filters
// resolve into torrent-ID sets from the torrent records committed at the
// query's version, which the lake holds in memory and shares read-only,
// so no query decodes a meta file. A grouped aggregate over a
// million-observation lake never materializes a dataset.
package query

import (
	"context"
	"errors"

	"btpub/internal/dataset"
	"btpub/internal/geoip"
	"btpub/internal/lake"
)

// Lake executes queries against a persistent observation lake. It is
// safe for concurrent use.
type Lake struct {
	lk *lake.Lake
	db *geoip.DB
}

// NewLake wraps a lake for querying.
func NewLake(lk *lake.Lake, db *geoip.DB) (*Lake, error) {
	if lk == nil || db == nil {
		return nil, errors.New("query: lake and geo DB required")
	}
	return &Lake{lk: lk, db: db}, nil
}

// Execute answers one query.
func (e *Lake) Execute(ctx context.Context, q Query) (*Result, error) {
	p, recs, perr := e.prepare(q)
	if perr != nil {
		return nil, perr
	}
	c := newCollector(p, newEnv(e.db, recs, p))
	err := e.lk.Scan(ctx, compilePred(p, recs), func(b *lake.Batch) error {
		for k := 0; k < b.Len(); k++ {
			c.add(int32(b.TorrentID(k)), b.IP(k), b.UnixNano(k), b.Seeder(k))
		}
		return nil
	})
	if err != nil {
		return nil, mapLakeErr(err)
	}
	return c.finish()
}

// Explain describes how Execute would answer the query without reading
// any observation data: the lake's scan plan (the planned predicate
// order and the fate of every committed segment) plus the torrent-ID
// pushdown. It is the payload behind `btpub-query -explain`.
type Explain struct {
	lake.ScanPlan
	// PushdownTorrentIDs is the size of the torrent-ID set the filter
	// compiled down to (publisher names resolved against metadata), or
	// -1 when the filter does not restrict torrents.
	PushdownTorrentIDs int `json:"pushdown_torrent_ids"`
}

// Explain plans one query without executing it.
func (e *Lake) Explain(ctx context.Context, q Query) (*Explain, error) {
	p, recs, perr := e.prepare(q)
	if perr != nil {
		return nil, perr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pred := compilePred(p, recs)
	sp, err := e.lk.PlanScan(pred)
	if err != nil {
		return nil, mapLakeErr(err)
	}
	ex := &Explain{ScanPlan: sp, PushdownTorrentIDs: -1}
	if pred.TorrentIDs != nil {
		ex.PushdownTorrentIDs = len(pred.TorrentIDs)
	}
	return ex, nil
}

// prepare compiles the query and takes the torrent records committed at
// the query's version when the plan needs them. The returned error is a
// *Error for invalid queries and a plain error for lake I/O failures, so
// HTTP layers keep mapping them to 400 and 500 respectively.
func (e *Lake) prepare(q Query) (*plan, []*dataset.TorrentRecord, error) {
	p, perr := newPlan(q)
	if perr != nil {
		return nil, nil, perr
	}
	if !p.needsMeta() {
		return p, nil, nil
	}
	recs, _, err := e.lk.TorrentRecords(q.Filter.AsOf)
	if err != nil {
		return nil, nil, mapLakeErr(err)
	}
	return p, recs, nil
}

// mapLakeErr converts a pinned-version failure into a *Error, so the
// HTTP layer answers 400 (the client named a version the lake cannot
// serve) instead of 500.
func mapLakeErr(err error) error {
	var vu *lake.VersionUnavailableError
	if errors.As(err, &vu) {
		return badf("bad_query", "filter.as_of: %v", vu)
	}
	return err
}

// compilePred lowers the plan's filter into the lake predicate the scan
// planner prunes on.
func compilePred(p *plan, recs []*dataset.TorrentRecord) lake.Predicate {
	pred := lake.Predicate{
		SeedersOnly: p.q.Filter.SeedersOnly,
		IPs:         p.q.Filter.IPs,
		AsOf:        p.q.Filter.AsOf,
	}
	if !p.q.Filter.MinTime.IsZero() {
		pred.MinTime = p.q.Filter.MinTime
	}
	if !p.q.Filter.MaxTime.IsZero() {
		pred.MaxTime = p.q.Filter.MaxTime
	}
	if tids := pushdownTIDs(p, recs); tids != nil {
		pred.TorrentIDs = tids
	}
	return pred
}

// pushdownTIDs compiles the torrent-ID and publisher filters into one
// predicate ID set (nil = no restriction). Publisher names are resolved
// against the metadata records; validation guarantees names are
// non-empty, so an observation whose torrent has no record can never
// match the publisher filter — dropping it at the planning layer is
// exact, not approximate.
func pushdownTIDs(p *plan, recs []*dataset.TorrentRecord) []int {
	if p.tids == nil && p.pubs == nil {
		return nil
	}
	if p.pubs == nil {
		out := make([]int, 0, len(p.tids))
		for tid := range p.tids {
			out = append(out, int(tid))
		}
		return out
	}
	out := []int{} // non-nil: an empty set must select nothing, not everything
	for _, rec := range recs {
		if !p.pubs[rec.PublisherKey()] {
			continue
		}
		if p.tids != nil && !p.tids[int32(rec.TorrentID)] {
			continue
		}
		out = append(out, rec.TorrentID)
	}
	return out
}

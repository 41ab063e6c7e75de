// The from-scratch lake build: Materialize streams the committed
// segments through the lake's predicate scan and canonicalises with
// dataset.Merge, so the resulting tables are byte-identical to the JSONL
// path regardless of segment boundaries, flush sizes or compaction
// history. Nothing serves from it — internal/delta maintains the served
// snapshot — but it sorts everything from scratch where that fold
// merges, which makes it the oracle the equivalence tests and the
// benchmark compare against.
package analysis

import (
	"context"

	"btpub/internal/geoip"
	"btpub/internal/lake"
)

// NewFromLakeVersion indexes the committed contents of a lake for
// analysis and returns the committed lake version the scan used. pred
// narrows the view (zero Predicate = everything); topK <= 0 picks the
// paper's 3 % rule, as in New.
func NewFromLakeVersion(ctx context.Context, lk *lake.Lake, db *geoip.DB, pred lake.Predicate, topK int) (*Analysis, uint64, error) {
	ds, v, err := lk.Materialize(ctx, pred)
	if err != nil {
		return nil, 0, err
	}
	an, err := New(ds, db, topK)
	if err != nil {
		return nil, 0, err
	}
	return an, v, nil
}

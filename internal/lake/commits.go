// Commit payloads: what the lake stores inside journal records. Every
// record is one commit: the post-commit scalar state (absolute, so any
// single record pins the counters) plus segment/meta deltas — files
// added by a flush, segments retired by compaction or salvage. The
// journal holds one record per version from version 1, so the state at
// version v is the fold of its first v records, and the in-memory history
// is indexed by version.
package lake

import (
	"encoding/json"
	"fmt"
	"time"

	"btpub/internal/lake/journal"
)

// payloadFormat is the format number every commit payload carries. It
// names the whole on-disk layout the journal describes — payload fields
// and segment encoding alike — so Open refuses an older lake at its
// first record instead of at its first segment read.
const payloadFormat = 3

// commitPayload is the JSON body of one journal record. Scalars are the
// absolute post-commit values; AddSegments/RetireSegments/AddMeta are
// the commit's deltas.
type commitPayload struct {
	Format  int       `json:"format"`
	Name    string    `json:"name,omitempty"`
	Start   time.Time `json:"start,omitempty"`
	End     time.Time `json:"end,omitempty"`
	NextSeq int       `json:"next_seq"`
	NextTID int32     `json:"next_tid"`
	Rows    int64     `json:"rows"`

	Torrents int   `json:"torrents"`
	Users    int   `json:"users"`
	Dropped  int64 `json:"dropped,omitempty"`

	AddSegments    []segMeta `json:"add_segments,omitempty"`
	RetireSegments []string  `json:"retire_segments,omitempty"`
	AddMeta        []string  `json:"add_meta,omitempty"`
}

// payloadScalars copies a state's scalar fields into a payload.
func payloadScalars(pay *commitPayload, m *manifest) {
	pay.Format = payloadFormat
	pay.Name, pay.Start, pay.End = m.Name, m.Start, m.End
	pay.NextSeq, pay.NextTID = m.NextSeq, m.NextTID
	pay.Rows, pay.Torrents, pay.Users, pay.Dropped = m.Rows, m.Torrents, m.Users, m.Dropped
}

// decodeHist parses the replayed journal records' payloads — the
// in-memory history the lake folds for time travel, hist[v-1] holding
// version v (the journal guarantees the versions are dense from 1).
func decodeHist(recs []journal.Record) ([]*commitPayload, error) {
	hist := make([]*commitPayload, 0, len(recs))
	for i, rec := range recs {
		var pay commitPayload
		if err := json.Unmarshal(rec.Payload, &pay); err != nil {
			return nil, fmt.Errorf("lake: journal record %d (version %d): bad payload: %w", i, rec.Version, err)
		}
		if pay.Format != payloadFormat {
			return nil, fmt.Errorf("lake: journal record %d (version %d) is lake format %d; this build reads and writes only format %d and migrates nothing",
				i, rec.Version, pay.Format, payloadFormat)
		}
		hist = append(hist, &pay)
	}
	return hist, nil
}

// applyCommit folds one record onto m, retires before adds.
func applyCommit(m *manifest, version uint64, pay *commitPayload) {
	m.Version = version
	m.Name, m.Start, m.End = pay.Name, pay.Start, pay.End
	m.NextSeq, m.NextTID = pay.NextSeq, pay.NextTID
	m.Rows, m.Torrents, m.Users, m.Dropped = pay.Rows, pay.Torrents, pay.Users, pay.Dropped
	if len(pay.RetireSegments) > 0 {
		gone := make(map[string]bool, len(pay.RetireSegments))
		for _, f := range pay.RetireSegments {
			gone[f] = true
		}
		keep := m.Segments[:0]
		for _, s := range m.Segments {
			if !gone[s.File] {
				keep = append(keep, s)
			}
		}
		m.Segments = keep
	}
	m.Segments = append(m.Segments, pay.AddSegments...)
	m.Meta = append(m.Meta, pay.AddMeta...)
}

// foldHist replays hist — a history prefix, so the state at version
// len(hist) — from the empty lake.
func foldHist(hist []*commitPayload) *manifest {
	m := &manifest{}
	for i, pay := range hist {
		applyCommit(m, uint64(i+1), pay)
	}
	return m
}

// histFiles collects every file any record in hist ever referenced —
// the protected set for orphan cleanup when Options.Retain keeps
// historical versions scannable.
func histFiles(hist []*commitPayload) map[string]bool {
	out := make(map[string]bool)
	for _, pay := range hist {
		for _, s := range pay.AddSegments {
			out[s.File] = true
		}
		for _, f := range pay.AddMeta {
			out[f] = true
		}
	}
	return out
}

// Commit payloads: what the lake stores inside journal records. Every
// record is one commit: the post-commit scalar state (absolute, so any
// single record pins the counters) plus its deltas — segments added by a
// flush, segments retired by compaction or salvage, and the torrent and
// user records the commit adds, which live nowhere else on disk. A
// compaction's record is marked as a rewrite: it adds exactly the rows
// it retires, which decoding proves from the journal's own zone maps.
// The journal holds one record per version from version 1, so the state
// at version v is the fold of its first v records, and the in-memory
// history is indexed by version.
package lake

import (
	"encoding/json"
	"fmt"
	"time"

	"btpub/internal/dataset"
	"btpub/internal/lake/journal"
)

// payloadFormat is the format number every commit payload carries. It
// names the whole on-disk layout the journal describes — payload fields
// and segment encoding alike — so Open refuses an older lake at its
// first record instead of at its first segment read.
const payloadFormat = 4

// commitPayload is the JSON body of one journal record. Scalars are the
// absolute post-commit values; AddSegments/RetireSegments and
// AddTorrents/AddUsers are the commit's deltas. Rewrite marks a
// compaction: its added segments hold exactly the rows of the segments
// it retires, re-sorted, so no observation appears or disappears. A
// retirement without the flag (salvage, or a compaction written before
// the flag existed) may drop rows. The record lists hold the dataset
// codec's record JSON (without its "kind" field); they are emptied once
// the lake's record lists hold them (Lake.commitLocked, takeRecords), so
// a record is held once in memory.
type commitPayload struct {
	Format  int       `json:"format"`
	Name    string    `json:"name,omitempty"`
	Start   time.Time `json:"start,omitempty"`
	End     time.Time `json:"end,omitempty"`
	NextSeq int       `json:"next_seq"`
	NextTID int64     `json:"next_tid"`
	Rows    int64     `json:"rows"`

	Torrents int   `json:"torrents"`
	Users    int   `json:"users"`
	Dropped  int64 `json:"dropped,omitempty"`

	AddSegments    []segMeta `json:"add_segments,omitempty"`
	RetireSegments []string  `json:"retire_segments,omitempty"`
	Rewrite        bool      `json:"rewrite,omitempty"`

	AddTorrents []*dataset.TorrentRecord `json:"add_torrents,omitempty"`
	AddUsers    []dataset.UserRecord     `json:"add_users,omitempty"`
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
// version v (the journal guarantees the versions are dense from 1) — and
// folds them into the head state, refusing any record that does not
// apply cleanly to its parent version (see applyCommit) or whose
// absolute record counts are not its parent's plus the records it adds —
// the counts every version's record slices are cut by.
func decodeHist(recs []journal.Record) ([]*commitPayload, *manifest, error) {
	hist := make([]*commitPayload, 0, len(recs))
	m := &manifest{}
	for i, rec := range recs {
		var pay commitPayload
		if err := json.Unmarshal(rec.Payload, &pay); err != nil {
			return nil, nil, fmt.Errorf("lake: journal record %d (version %d): bad payload: %w", i, rec.Version, err)
		}
		if pay.Format != payloadFormat {
			return nil, nil, fmt.Errorf("lake: journal record %d (version %d) is lake format %d; this build reads and writes only format %d and migrates nothing",
				i, rec.Version, pay.Format, payloadFormat)
		}
		if pay.Torrents != m.Torrents+len(pay.AddTorrents) || pay.Users != m.Users+len(pay.AddUsers) {
			return nil, nil, fmt.Errorf("lake: journal version %d adds %d torrent and %d user records to %d and %d, but counts %d and %d",
				rec.Version, len(pay.AddTorrents), len(pay.AddUsers), m.Torrents, m.Users, pay.Torrents, pay.Users)
		}
		if err := applyCommit(m, rec.Version, &pay); err != nil {
			return nil, nil, err
		}
		hist = append(hist, &pay)
	}
	return hist, m, nil
}

// applyCommit folds one record onto m, retires before adds. It refuses a
// record that retires a segment not live in m, and a rewrite whose
// output is not its victims' rows: the same row count and the same zone.
// On error m is half-applied and must be dropped.
func applyCommit(m *manifest, version uint64, pay *commitPayload) error {
	m.Version = version
	m.Name, m.Start, m.End = pay.Name, pay.Start, pay.End
	m.NextSeq, m.NextTID = pay.NextSeq, pay.NextTID
	m.Rows, m.Torrents, m.Users, m.Dropped = pay.Rows, pay.Torrents, pay.Users, pay.Dropped
	victims := emptyZone()
	if len(pay.RetireSegments) > 0 {
		live := make(map[string]bool, len(m.Segments))
		for _, s := range m.Segments {
			live[s.File] = true
		}
		for _, f := range pay.RetireSegments {
			if !live[f] {
				return fmt.Errorf("lake: journal version %d retires segment %s, which is not live at version %d", version, f, version-1)
			}
			live[f] = false
		}
		keep := m.Segments[:0]
		for _, s := range m.Segments {
			if live[s.File] {
				keep = append(keep, s)
			} else {
				victims.union(s.zone)
			}
		}
		m.Segments = keep
	}
	if pay.Rewrite {
		if err := checkRewrite(version, pay, victims); err != nil {
			return err
		}
	}
	m.Segments = append(m.Segments, pay.AddSegments...)
	return nil
}

// checkRewrite holds a rewrite record's output against the union of its
// victims' zones.
func checkRewrite(version uint64, pay *commitPayload, victims zone) error {
	out := emptyZone()
	for _, s := range pay.AddSegments {
		out.union(s.zone)
	}
	if out.Rows != victims.Rows {
		return fmt.Errorf("lake: journal version %d is a rewrite but adds %d row(s) for the %d it retires", version, out.Rows, victims.Rows)
	}
	if out != victims {
		return fmt.Errorf("lake: journal version %d is a rewrite but adds zone %+v for retired zone %+v", version, out, victims)
	}
	return nil
}

// foldHist replays hist — a validated history prefix, so the state at
// version len(hist) — from the empty lake.
func foldHist(hist []*commitPayload) *manifest {
	m := &manifest{}
	for i, pay := range hist {
		_ = applyCommit(m, uint64(i+1), pay) // decodeHist refused every record that fails
	}
	return m
}

// histFiles collects every segment any record in hist ever added — the
// protected set for orphan cleanup when Options.Retain keeps historical
// versions scannable.
func histFiles(hist []*commitPayload) map[string]bool {
	out := make(map[string]bool)
	for _, pay := range hist {
		for _, s := range pay.AddSegments {
			out[s.File] = true
		}
	}
	return out
}

// takeRecords moves the records hist's payloads carry into two lists in
// commit order, emptying the payloads, so Open holds each record once.
// decodeHist has held every version's counts against them, so version
// v's records are the first hist[v-1].Torrents (and Users) entries.
func takeRecords(hist []*commitPayload) ([]*dataset.TorrentRecord, []dataset.UserRecord) {
	var torrents []*dataset.TorrentRecord
	var users []dataset.UserRecord
	if n := len(hist); n > 0 {
		torrents = make([]*dataset.TorrentRecord, 0, hist[n-1].Torrents)
		users = make([]dataset.UserRecord, 0, hist[n-1].Users)
	}
	for _, pay := range hist {
		torrents = append(torrents, pay.AddTorrents...)
		users = append(users, pay.AddUsers...)
		pay.AddTorrents, pay.AddUsers = nil, nil
	}
	return torrents, users
}

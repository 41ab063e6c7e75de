// Commit payloads: what the lake stores inside journal records. A
// regular commit carries the post-commit scalar state (absolute, so any
// single record pins the counters) plus segment/meta deltas — files
// added by a flush, segments retired by compaction. A checkpoint record
// instead snapshots the full segment and meta lists at its version, so
// replay (and time travel) folds forward from the latest checkpoint at
// or below the target version instead of from the beginning of history.
package lake

import (
	"encoding/json"
	"fmt"
	"slices"
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
// the commit's deltas; Segments/Meta are the absolute lists carried only
// by checkpoint records.
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

	Segments []segMeta `json:"segments,omitempty"`
	Meta     []string  `json:"meta,omitempty"`
}

// histRec is one replayed journal record with its payload decoded — the
// in-memory history the lake folds for time travel.
type histRec struct {
	version    uint64
	checkpoint bool
	pay        *commitPayload
}

// payloadScalars copies a state's scalar fields into a payload.
func payloadScalars(pay *commitPayload, m *manifest) {
	pay.Format = payloadFormat
	pay.Name, pay.Start, pay.End = m.Name, m.Start, m.End
	pay.NextSeq, pay.NextTID = m.NextSeq, m.NextTID
	pay.Rows, pay.Torrents, pay.Users, pay.Dropped = m.Rows, m.Torrents, m.Users, m.Dropped
}

// checkpointPayload snapshots a full state into a checkpoint payload.
func checkpointPayload(m *manifest) *commitPayload {
	pay := &commitPayload{
		Segments: append([]segMeta{}, m.Segments...),
		Meta:     append([]string{}, m.Meta...),
	}
	payloadScalars(pay, m)
	return pay
}

// decodeHist parses the replayed journal records' payloads.
func decodeHist(recs []journal.Record) ([]histRec, error) {
	hist := make([]histRec, 0, len(recs))
	for i, rec := range recs {
		var pay commitPayload
		if err := json.Unmarshal(rec.Payload, &pay); err != nil {
			return nil, fmt.Errorf("lake: journal record %d (version %d): bad payload: %w", i, rec.Version, err)
		}
		if pay.Format != payloadFormat {
			return nil, fmt.Errorf("lake: journal record %d (version %d) is lake format %d; this build reads and writes only format %d and migrates nothing",
				i, rec.Version, pay.Format, payloadFormat)
		}
		hist = append(hist, histRec{version: rec.Version, checkpoint: rec.Checkpoint, pay: &pay})
	}
	return hist, nil
}

// applyCommit folds one record onto m, retires before adds.
func applyCommit(m *manifest, h histRec) {
	m.Version = h.version
	pay := h.pay
	m.Name, m.Start, m.End = pay.Name, pay.Start, pay.End
	m.NextSeq, m.NextTID = pay.NextSeq, pay.NextTID
	m.Rows, m.Torrents, m.Users, m.Dropped = pay.Rows, pay.Torrents, pay.Users, pay.Dropped
	if h.checkpoint {
		m.Segments = append([]segMeta(nil), pay.Segments...)
		m.Meta = append([]string(nil), pay.Meta...)
		return
	}
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

// foldHist replays hist[:n] into the state it establishes, starting
// from the latest checkpoint at or below the cut. With verify set,
// every checkpoint inside the folded range is cross-checked against the
// state folded up to it — a writer bug (or tampered record) surfaces as
// an error instead of silently forking history.
func foldHist(hist []histRec, n int, verify bool) (*manifest, error) {
	start := 0
	if !verify {
		for i := n - 1; i >= 0; i-- {
			if hist[i].checkpoint {
				start = i
				break
			}
		}
	}
	m := &manifest{}
	for i := start; i < n; i++ {
		h := hist[i]
		if verify && h.checkpoint && i > 0 {
			if err := stateMismatch(m, h.pay); err != nil {
				return nil, fmt.Errorf("lake: journal checkpoint at version %d disagrees with replay: %w", h.version, err)
			}
		}
		applyCommit(m, h)
	}
	return m, nil
}

// stateMismatch compares a folded state against a checkpoint's absolute
// payload, returning a description of the first divergence (nil = equal).
func stateMismatch(m *manifest, pay *commitPayload) error {
	if m.NextSeq != pay.NextSeq || m.NextTID != pay.NextTID {
		return fmt.Errorf("next_seq/next_tid %d/%d vs %d/%d", pay.NextSeq, pay.NextTID, m.NextSeq, m.NextTID)
	}
	if m.Rows != pay.Rows || m.Torrents != pay.Torrents || m.Users != pay.Users {
		return fmt.Errorf("rows/torrents/users %d/%d/%d vs %d/%d/%d",
			pay.Rows, pay.Torrents, pay.Users, m.Rows, m.Torrents, m.Users)
	}
	if !slices.Equal(m.Segments, pay.Segments) {
		return fmt.Errorf("segment lists differ (%d vs %d entries)", len(pay.Segments), len(m.Segments))
	}
	if !slices.Equal(m.Meta, pay.Meta) {
		return fmt.Errorf("meta lists differ (%d vs %d entries)", len(pay.Meta), len(m.Meta))
	}
	return nil
}

// histFiles collects every file any record in hist ever referenced —
// the protected set for orphan cleanup when Options.Retain keeps
// historical versions scannable.
func histFiles(hist []histRec) map[string]bool {
	out := make(map[string]bool)
	add := func(segs []segMeta, meta []string) {
		for _, s := range segs {
			out[s.File] = true
		}
		for _, f := range meta {
			out[f] = true
		}
	}
	for _, h := range hist {
		add(h.pay.AddSegments, h.pay.AddMeta)
		add(h.pay.Segments, h.pay.Meta)
	}
	return out
}

// The manifest is the lake's in-memory state: every live segment with its
// zone map and size, and the scalar counters. On disk the source of truth
// is the append-only commit journal (see internal/lake/journal and
// commits.go), which also carries every torrent and user record: Open
// replays the journal into a manifest. A segment file is written (and
// fsynced) before the commit record that references it; segments a crash
// orphaned are deleted on Open.
package lake

import (
	"strings"
	"time"

	"btpub/internal/lake/journal"
)

// segMeta is one live segment's manifest entry.
type segMeta struct {
	File  string `json:"file"`
	Bytes int64  `json:"bytes"`
	zone
}

// manifest is the committed lake state. It is never serialized itself:
// commit payloads (commits.go) carry its scalars and list deltas.
type manifest struct {
	Version uint64
	Name    string
	Start   time.Time
	End     time.Time

	// NextSeq numbers segment files monotonically.
	NextSeq int
	// NextTID is one past the highest reserved torrent ID (import base).
	NextTID int64

	Rows     int64
	Torrents int
	Users    int
	// Dropped accumulates DroppedObservations counts carried in by
	// imported datasets (inconsistent shards surface here, not silently).
	Dropped int64

	Segments []segMeta
}

func (m *manifest) clone() *manifest {
	cp := *m
	cp.Segments = append([]segMeta(nil), m.Segments...)
	return &cp
}

// files returns every segment the manifest references.
func (m *manifest) files() map[string]bool {
	out := make(map[string]bool, len(m.Segments))
	for _, s := range m.Segments {
		out[s.File] = true
	}
	return out
}

// isLakeFile reports whether name looks like a file this package owns
// (orphan cleanup must never touch anything else in the directory).
func isLakeFile(name string) bool {
	return strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".obs") ||
		name == journal.TmpName
}

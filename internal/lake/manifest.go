// The manifest is the lake's in-memory state: every live segment and
// meta file together with their zone maps and sizes. On disk the source
// of truth is the append-only commit journal (see internal/lake/journal
// and commits.go): Open replays the journal into a manifest. Segment and
// meta files are written (and fsynced) before the commit record that
// references them; files a crash orphaned are deleted on Open.
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

	// NextSeq numbers segment and meta files monotonically.
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
	// Meta lists the JSONL files holding torrent and user records.
	Meta []string
}

func (m *manifest) clone() *manifest {
	cp := *m
	cp.Segments = append([]segMeta(nil), m.Segments...)
	cp.Meta = append([]string(nil), m.Meta...)
	return &cp
}

// files returns every file the manifest references.
func (m *manifest) files() map[string]int64 {
	out := make(map[string]int64, len(m.Segments)+len(m.Meta))
	for _, s := range m.Segments {
		out[s.File] = s.Bytes
	}
	for _, f := range m.Meta {
		out[f] = -1 // meta sizes are not pinned
	}
	return out
}

// isLakeFile reports whether name looks like a file this package owns
// (orphan cleanup must never touch anything else in the directory).
func isLakeFile(name string) bool {
	return strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".obs") ||
		strings.HasPrefix(name, "meta-") && strings.HasSuffix(name, ".jsonl") ||
		name == journal.TmpName
}

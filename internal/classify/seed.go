package classify

import (
	"errors"

	"btpub/internal/dataset"
	"btpub/internal/geoip"
)

// FactsSeed carries the two distinct-download aggregates that dominate
// BuildFacts' cost — both O(observations) passes over the columnar store
// — precomputed by an incremental maintainer (internal/delta) that only
// recounts the torrents and users a lake delta touched.
//
// The seed must match what BuildFacts would compute over the same
// canonical dataset (record tid carries TorrentID tid) exactly:
// DownloadsByTorrent has one entry per record, the number of distinct
// downloader IPs observed on that torrent, and UserDownloads maps every
// publisher identity — username, or "ip:<addr>" for username-less
// records — to its distinct downloader count across all its torrents
// (an IP that fetched several counts once). The equivalence gate in
// internal/delta holds seeded builds byte-identical to unseeded ones.
type FactsSeed struct {
	DownloadsByTorrent []int
	UserDownloads      map[string]int
}

// downloadsByTorrent is nil-receiver-safe so buildFacts can branch on it.
func (s *FactsSeed) downloadsByTorrent() []int {
	if s == nil {
		return nil
	}
	return s.DownloadsByTorrent
}

// BuildFactsSeeded is BuildFacts with the distinct-download passes
// replaced by the seed's precomputed results.
func BuildFactsSeeded(ds *dataset.Dataset, db *geoip.DB, seed *FactsSeed) (*Facts, error) {
	if seed == nil {
		return nil, errors.New("classify: nil facts seed")
	}
	return buildFacts(ds, db, seed)
}

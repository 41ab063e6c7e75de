// Package dataset defines the record types the crawler produces and the
// analysis consumes, mirroring the structure of the paper's mn08/pb09/pb10
// datasets: per-torrent metadata with the identified initial publisher,
// plus the time-stamped peer observations gathered from periodic tracker
// queries.
//
// Observations — the bulk of any crawl — live in a columnar ObsStore with
// interned addresses (see obsstore.go) instead of a slice of structs, so a
// million sightings cost four flat columns and one string per distinct IP.
//
// Records persist as JSON Lines, one file per dataset, so large crawls
// stream instead of loading a 300 GB blob the way the original study had
// to. The observation lines use hand-rolled encode/decode fast paths that
// are byte-identical to the encoding/json output (see codec.go).
package dataset

import (
	"fmt"
	"log"
	"net/netip"
	"slices"
	"strings"
	"time"
)

// TorrentRecord is everything the crawler learned about one torrent.
type TorrentRecord struct {
	// TorrentID is the crawler-assigned sequence number.
	TorrentID int `json:"torrent_id"`
	// InfoHash in hex.
	InfoHash string `json:"info_hash"`
	Title    string `json:"title"`
	Category string `json:"category"`
	// SizeBytes as reported by the portal.
	SizeBytes int64 `json:"size_bytes"`
	// FileName inside the .torrent (promo channel i).
	FileName string `json:"file_name"`
	// Description is the portal page textbox (promo channel ii).
	Description string `json:"description,omitempty"`
	// BundledFiles lists extra files in the bundle (promo channel iii).
	BundledFiles []string `json:"bundled_files,omitempty"`

	// Username of the publisher on the portal ("" for mn08-style datasets
	// without username information).
	Username string `json:"username,omitempty"`
	// PublisherIP is the initial seeder address when identified ("" when
	// NATed, ambiguous or never seen — the paper manages ~40%).
	PublisherIP string `json:"publisher_ip,omitempty"`
	// Published is the RSS announcement time.
	Published time.Time `json:"published"`
	// FirstSeenSeeders/FirstSeenPeers snapshot the swarm at first contact;
	// identification is only attempted when FirstSeenSeeders == 1 and
	// FirstSeenPeers < 20 (Section 2).
	FirstSeenSeeders int `json:"first_seen_seeders"`
	FirstSeenPeers   int `json:"first_seen_peers"`

	// Removed reports that the portal took the torrent down mid-campaign
	// (observed when a later page/torrent fetch 404s).
	Removed bool `json:"removed,omitempty"`
}

// PublisherKey is the identity every analysis attributes the torrent to:
// the portal username, or "ip:<addr>" for mn08-style records that carry
// only the identified seeder address, or "" when neither is known.
func (r *TorrentRecord) PublisherKey() string {
	if r.Username != "" {
		return r.Username
	}
	if r.PublisherIP != "" {
		return "ip:" + r.PublisherIP
	}
	return ""
}

// Observation is one sighting of one IP in one torrent's tracker reply —
// the logical record materialized from the columnar ObsStore.
type Observation struct {
	TorrentID int       `json:"t"`
	IP        string    `json:"ip"`
	At        time.Time `json:"at"`
	Seeder    bool      `json:"s,omitempty"`
}

// UserRecord is the scraped state of one portal account at campaign end
// (the longitudinal data of Table 4). Exists=false means the portal
// deleted the account — the paper's fake-publisher signal.
type UserRecord struct {
	Username     string    `json:"username"`
	Exists       bool      `json:"exists"`
	MemberSince  time.Time `json:"member_since,omitempty"`
	FirstUpload  time.Time `json:"first_upload,omitempty"`
	TotalUploads int       `json:"total_uploads,omitempty"`
}

// Dataset is the in-memory form.
type Dataset struct {
	// Name, e.g. "pb10".
	Name string `json:"name"`
	// Start/End of the measurement window.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`

	Torrents []*TorrentRecord
	// Obs holds the peer observations in columnar form.
	Obs   ObsStore
	Users []UserRecord

	// DroppedObservations counts observations Merge discarded because
	// their TorrentID matched no torrent record in the same part — a
	// non-zero value means a shard produced inconsistent output.
	DroppedObservations int
}

// UserByName indexes user records.
func (d *Dataset) UserByName() map[string]UserRecord {
	out := make(map[string]UserRecord, len(d.Users))
	for _, u := range d.Users {
		out[u.Username] = u
	}
	return out
}

// AddTorrent appends a record.
func (d *Dataset) AddTorrent(r *TorrentRecord) { d.Torrents = append(d.Torrents, r) }

// AddObservation appends an observation.
func (d *Dataset) AddObservation(o Observation) { d.Obs.Append(o) }

// NumObservations returns the observation count.
func (d *Dataset) NumObservations() int { return d.Obs.Len() }

// DistinctIPs counts distinct observed addresses (the paper's Table 1
// "#IP addresses" column). With interned storage this is the intern-table
// size — O(1) instead of a full map build.
func (d *Dataset) DistinctIPs() int {
	return d.Obs.IPs().Len()
}

// TorrentsWithUsername counts records with a username.
func (d *Dataset) TorrentsWithUsername() int {
	n := 0
	for _, t := range d.Torrents {
		if t.Username != "" {
			n++
		}
	}
	return n
}

// TorrentsWithIP counts records whose initial publisher IP was identified.
func (d *Dataset) TorrentsWithIP() int {
	n := 0
	for _, t := range d.Torrents {
		if t.PublisherIP != "" {
			n++
		}
	}
	return n
}

// Merge combines shard datasets into one canonical dataset. Torrent
// records are ordered by (Published, InfoHash) and renumbered, each part's
// observations are remapped to the new torrent IDs, observations are
// ordered by (At, TorrentID, IP, Seeder) and users by username. The
// ordering depends only on record content, never on which shard produced a
// record or when, so a sharded crawl serialises byte-identically to a
// serial one. Both sorts are stable: records sharing a (Published,
// InfoHash) key, and users sharing a username, keep their input order
// (part by part, then position within the part), which makes the order
// total: MergeUsers reproduces it incrementally, and AppendRecords extends
// it by records that sort at or after the last one.
// Records are copied; the parts are left untouched. The window
// stamps span the parts' (callers usually overwrite them with the campaign
// window). Passing a single part canonicalises it.
//
// Observations whose TorrentID has no matching torrent record in their
// part are counted in the result's DroppedObservations and logged — a
// buggy shard cannot silently shrink a dataset.
func Merge(name string, parts ...*Dataset) *Dataset {
	out := &Dataset{Name: name}
	type src struct {
		rec  *TorrentRecord
		part int
	}
	var all []src
	for pi, p := range parts {
		for _, t := range p.Torrents {
			all = append(all, src{rec: t, part: pi})
		}
		if out.Start.IsZero() || (!p.Start.IsZero() && p.Start.Before(out.Start)) {
			out.Start = p.Start
		}
		if p.End.After(out.End) {
			out.End = p.End
		}
	}
	slices.SortStableFunc(all, func(a, b src) int { return recordKeyCmp(a.rec, b.rec) })
	// Renumber on copies and build each part's old->new ID map.
	remap := make([]map[int]int32, len(parts))
	for i := range remap {
		remap[i] = map[int]int32{}
	}
	out.Torrents = make([]*TorrentRecord, len(all))
	for newID, s := range all {
		cp := *s.rec
		remap[s.part][cp.TorrentID] = int32(newID)
		cp.TorrentID = newID
		out.Torrents[newID] = &cp
	}
	total := 0
	for _, p := range parts {
		total += p.Obs.Len()
	}
	out.Obs.grow(total)
	dropped := 0
	const unmapped = ^uint32(0)
	for pi, p := range parts {
		// Remap the part's intern table lazily — one hash per distinct
		// surviving address instead of one per observation, and addresses
		// seen only in dropped observations never pollute the merged table
		// (DistinctIPs counts surviving observations' addresses only).
		ipMap := make([]uint32, p.Obs.IPs().Len())
		for i := range ipMap {
			ipMap[i] = unmapped
		}
		rm := remap[pi]
		for i := 0; i < p.Obs.Len(); i++ {
			id, ok := rm[p.Obs.TorrentID(i)]
			if !ok {
				dropped++
				continue
			}
			pip := p.Obs.IPIndex(i)
			mapped := ipMap[pip]
			if mapped == unmapped {
				mapped = out.Obs.ips.InternString(p.Obs.IPs().String(pip))
				ipMap[pip] = mapped
			}
			out.Obs.push(id, mapped, p.Obs.UnixNano(i), p.Obs.Seeder(i))
		}
		out.Users = append(out.Users, p.Users...)
	}
	out.DroppedObservations = dropped
	if dropped > 0 {
		log.Printf("dataset: Merge(%q) dropped %d observations with no matching torrent record", name, dropped)
	}
	out.sortObservations()
	slices.SortStableFunc(out.Users, userKeyCmp)
	return out
}

// sortObservations orders the store by the canonical serialization order.
func (d *Dataset) sortObservations() { d.Obs.SortCanonical() }

// SortCanonical orders the store by (At, TorrentID, IP string, Seeder) —
// the canonical serialization order Merge establishes. The string
// tie-break is realised as a precomputed rank over the intern table, so
// the comparator touches only fixed-width integers. The lake compactor
// reuses this ordering when folding small segments together.
func (s *ObsStore) SortCanonical() {
	n := s.Len()
	if n == 0 {
		return
	}
	nIPs := s.ips.Len()
	byStr := make([]uint32, nIPs)
	for i := range byStr {
		byStr[i] = uint32(i)
	}
	slices.SortFunc(byStr, func(a, b uint32) int {
		return strings.Compare(s.ips.strs[a], s.ips.strs[b])
	})
	rank := make([]uint32, nIPs)
	for pos, idx := range byStr {
		rank[idx] = uint32(pos)
	}
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		if s.atNs[a] != s.atNs[b] {
			if s.atNs[a] < s.atNs[b] {
				return -1
			}
			return 1
		}
		if s.tids[a] != s.tids[b] {
			return int(s.tids[a]) - int(s.tids[b])
		}
		if ra, rb := rank[s.ipIdx[a]], rank[s.ipIdx[b]]; ra != rb {
			if ra < rb {
				return -1
			}
			return 1
		}
		sa, sb := s.Seeder(int(a)), s.Seeder(int(b))
		switch {
		case sa == sb:
			return 0
		case sb:
			return -1
		default:
			return 1
		}
	})
	tids := make([]int32, n)
	ipIdx := make([]uint32, n)
	atNs := make([]int64, n)
	seed := make([]uint64, (n+63)/64)
	for to, from := range perm {
		tids[to] = s.tids[from]
		ipIdx[to] = s.ipIdx[from]
		atNs[to] = s.atNs[from]
		if s.Seeder(int(from)) {
			seed[to>>6] |= 1 << (uint(to) & 63)
		}
	}
	s.tids, s.ipIdx, s.atNs, s.seed = tids, ipIdx, atNs, seed
	s.idx, s.idxLen = nil, 0
}

// ParseIP parses an observation/record address.
func ParseIP(s string) (netip.Addr, error) {
	addr, err := netip.ParseAddr(s)
	if err != nil {
		return netip.Addr{}, fmt.Errorf("dataset: bad IP %q: %w", s, err)
	}
	return addr, nil
}

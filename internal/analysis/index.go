// The immutable one-pass index behind every table and figure. analysis.New
// builds it once: per-user interned-IP sets and the ISP aggregates of
// Tables 2–3 and Section 6, read off the publisher geo table classify
// resolved (classify.Facts.Pubs). Per-torrent observation spans come
// from the dataset's own index, and the per-IP inversion of the
// observation columns that only the seeding estimator (Figure 4) reads
// is counting-sorted on its first call, so snapshots that never serve
// Figure 4 never pay for it. Consumers only walk flat slices, indexed by
// torrent ID: the dataset is canonical, so record i has TorrentID i.
package analysis

import (
	"slices"
	"strings"
	"sync"

	"btpub/internal/classify"
	"btpub/internal/dataset"
	"btpub/internal/geoip"
)

// index is the pre-computed, read-only view shared by all analysis calls.
type index struct {
	store *dataset.ObsStore

	// ipStarts/ipOrder invert the observation columns by interned IP:
	// observations of IP i are ipOrder[ipStarts[i]:ipStarts[i+1]], in time
	// order. The seeding estimator walks a publisher's own sightings
	// instead of scanning every observation of every torrent it fed.
	// Both are built by ipOnce, on the first Seeding call.
	ipOnce   sync.Once
	ipStarts []int32
	ipOrder  []int32

	// userIPIdx maps a username to the intern-table indices of its
	// identified publisher IPs (only those actually observed; an IP never
	// seen by the tracker cannot match any observation).
	userIPIdx map[string][]uint32

	// ispRows is Table 2 fully computed and sorted (ISPTable truncates).
	ispRows []ISPRow
	// contrast holds each ISP's Table 3 footprint.
	contrast map[string]ISPContrast
	// hostingServers counts distinct publisher IPs per ISP (Section 6).
	hostingServers map[string]int
}

// buildIndex resolves everything the analysis consumers re-derived per
// call in the row-of-structs era.
func buildIndex(ds *dataset.Dataset, facts *classify.Facts) *index {
	store := &ds.Obs
	ix := &index{
		store:     store,
		userIPIdx: make(map[string][]uint32, len(facts.Users)),
	}
	ix.buildISPAggregates(ds, facts.Pubs)
	ips := store.IPs()
	for name, u := range facts.Users {
		if len(u.IPs) == 0 {
			continue
		}
		var idxs []uint32
		for _, ip := range u.IPs {
			if i, ok := ips.Lookup(ip); ok {
				idxs = append(idxs, i)
			}
		}
		if len(idxs) > 0 {
			ix.userIPIdx[name] = idxs
		}
	}
	return ix
}

// buildIPOrder counting-sorts observation indices by interned IP,
// preserving time order within each IP. Seeding calls it once per
// snapshot.
func (ix *index) buildIPOrder() {
	s := ix.store
	n := s.Len()
	nIPs := s.IPs().Len()
	starts := make([]int32, nIPs+1)
	for i := 0; i < n; i++ {
		starts[s.IPIndex(i)+1]++
	}
	for i := 1; i <= nIPs; i++ {
		starts[i] += starts[i-1]
	}
	order := make([]int32, n)
	next := make([]int32, nIPs)
	copy(next, starts[:nIPs])
	for i := 0; i < n; i++ {
		ip := s.IPIndex(i)
		order[next[ip]] = int32(i)
		next[ip]++
	}
	ix.ipStarts, ix.ipOrder = starts, order
}

// ipSpan returns the time-ordered observation indices of interned IP i.
func (ix *index) ipSpan(i uint32) []int32 {
	return ix.ipOrder[ix.ipStarts[i]:ix.ipStarts[i+1]]
}

// buildISPAggregates derives Table 2, Table 3 and the Section 6 server
// counts from the resolved publisher table (pubs[tid] is torrent tid's)
// in one pass.
func (ix *index) buildISPAggregates(ds *dataset.Dataset, pubs []classify.PubGeo) {
	counts := map[string]int{}
	types := map[string]geoip.ISPType{}
	total := 0
	ipSets := map[string]map[string]bool{}
	prefixSets := map[string]map[uint32]bool{}
	locSets := map[string]map[string]bool{}
	for tid, p := range pubs {
		if !p.OK {
			continue
		}
		isp := p.ISP
		counts[isp]++
		types[isp] = p.Type
		total++
		if ipSets[isp] == nil {
			ipSets[isp] = map[string]bool{}
			prefixSets[isp] = map[uint32]bool{}
			locSets[isp] = map[string]bool{}
		}
		ipSets[isp][ds.Torrents[tid].PublisherIP] = true
		prefixSets[isp][p.Slash16] = true
		locSets[isp][p.Country+"/"+p.City] = true
	}
	ix.ispRows = make([]ISPRow, 0, len(counts))
	for isp, n := range counts {
		ix.ispRows = append(ix.ispRows, ISPRow{
			ISP:     isp,
			Type:    types[isp],
			Percent: 100 * float64(n) / float64(total),
		})
	}
	slices.SortFunc(ix.ispRows, func(a, b ISPRow) int {
		if a.Percent != b.Percent {
			if a.Percent > b.Percent {
				return -1
			}
			return 1
		}
		return strings.Compare(a.ISP, b.ISP)
	})
	ix.contrast = make(map[string]ISPContrast, len(counts))
	ix.hostingServers = make(map[string]int, len(counts))
	for isp, n := range counts {
		ix.contrast[isp] = ISPContrast{
			ISP:          isp,
			FedTorrents:  n,
			IPAddresses:  len(ipSets[isp]),
			Slash16s:     len(prefixSets[isp]),
			GeoLocations: len(locSets[isp]),
		}
		ix.hostingServers[isp] = len(ipSets[isp])
	}
}

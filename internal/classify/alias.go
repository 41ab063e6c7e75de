// Username-aliasing cross-analysis: the §3.3 counterattack against
// operators that spread uploads over several portal accounts. Accounts
// that share identified publisher IPs collapse into one operator-level
// entity, and the fake signals (account deletion, takedown majority)
// propagate across the whole cluster — so a cohort of throwaway accounts
// is caught as one fake operation even when moderation only flagged some
// of its members.

package classify

import (
	"sort"

	"btpub/internal/geoip"
)

// AliasCluster is one connected component of the username↔publisher-IP
// graph with more than one username — the fingerprint of a single
// operator running several portal accounts off one seeder pool.
type AliasCluster struct {
	// Usernames, sorted; the first member keys the merged entity.
	Usernames []string
	// SharedIPs are the identified publisher IPs seen on more than one
	// member, sorted.
	SharedIPs []string
	// Torrents counts the cluster's combined window uploads.
	Torrents int
	// Fake reports the cluster-level fake signal: any member's account
	// deleted, or a takedown majority over the combined uploads.
	Fake bool
}

// AliasClusters links usernames through shared identified publisher IPs
// (union-find over ByIP) and returns every cluster with at least two
// members, ordered by combined upload count (descending, then by key).
func (f *Facts) AliasClusters() []AliasCluster {
	parent := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra != rb {
			// Smaller root wins: component roots are content-determined,
			// never iteration-order-determined.
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for _, names := range f.ByIP {
		for i := 1; i < len(names); i++ {
			union(names[0], names[i])
		}
	}
	members := map[string][]string{}
	for name := range parent {
		root := find(name)
		members[root] = append(members[root], name)
	}
	// Every IP with more than one username links exactly the usernames it
	// lists, so after the unions all of them share one root: one pass
	// over ByIP assigns each linking IP to its cluster.
	sharedByRoot := map[string][]string{}
	for ip, names := range f.ByIP {
		if len(names) > 1 {
			root := find(names[0])
			sharedByRoot[root] = append(sharedByRoot[root], ip)
		}
	}
	var out []AliasCluster
	for root, names := range members {
		if len(names) < 2 {
			continue
		}
		sort.Strings(names)
		c := AliasCluster{Usernames: names}
		removed := 0
		for _, n := range names {
			if u := f.Users[n]; u != nil {
				c.Torrents += len(u.TorrentIDs)
				removed += u.RemovedTorrents
				if u.AccountDeleted {
					c.Fake = true
				}
			}
		}
		if removed*2 > c.Torrents {
			c.Fake = true
		}
		c.SharedIPs = append(c.SharedIPs, sharedByRoot[root]...)
		sort.Strings(c.SharedIPs)
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Torrents != out[j].Torrents {
			return out[i].Torrents > out[j].Torrents
		}
		return out[i].Usernames[0] < out[j].Usernames[0]
	})
	return out
}

// MergeAliasClusters returns a view of the facts with every alias
// cluster (as computed by AliasClusters) folded into one operator-level
// UserFacts keyed by the cluster's first username: torrent lists and IP
// sets union, Downloads is recounted as distinct downloader IPs over the
// combined torrents, and the fake signals propagate across the cluster.
// Group building and business classification over the merged facts
// therefore rank and label operators, not accounts — an aliasing
// operator whose accounts individually sit below the top cut surfaces,
// and a fake cohort is evicted wholesale. No clusters returns the facts
// unchanged; unclustered users are shared, not copied. Taking the
// clusters as an argument lets a consumer needing both views (the serve
// layer caches the clusters alongside the merged facts) pay the
// union-find once.
func (f *Facts) MergeAliasClusters(clusters []AliasCluster) *Facts {
	if len(clusters) == 0 {
		return f
	}
	memberOf := map[string]int{}
	for ci, c := range clusters {
		for _, n := range c.Usernames {
			memberOf[n] = ci
		}
	}
	out := &Facts{
		Users:              make(map[string]*UserFacts, len(f.Users)),
		ByIP:               make(map[string][]string, len(f.ByIP)),
		DownloadsByTorrent: f.DownloadsByTorrent,
		Pubs:               f.Pubs,
		TotalTorrents:      f.TotalTorrents,
		TotalDownloads:     f.TotalDownloads,
		ds:                 f.ds,
	}
	merged := make([]*UserFacts, len(clusters))
	for name, u := range f.Users {
		ci, ok := memberOf[name]
		if !ok {
			out.Users[name] = u
			continue
		}
		m := merged[ci]
		if m == nil {
			m = &UserFacts{Username: clusters[ci].Usernames[0], ISPs: map[string]geoip.Record{}}
			merged[ci] = m
		}
		m.TorrentIDs = append(m.TorrentIDs, u.TorrentIDs...)
		m.RemovedTorrents += u.RemovedTorrents
		m.AccountDeleted = m.AccountDeleted || u.AccountDeleted
		for _, ip := range u.IPs {
			m.IPs = append(m.IPs, ip)
		}
		for ip, rec := range u.ISPs {
			m.ISPs[ip] = rec
		}
	}
	var recount []*UserFacts
	for _, m := range merged {
		if m == nil {
			continue
		}
		sort.Ints(m.TorrentIDs)
		sort.Strings(m.IPs)
		m.IPs = dedupSorted(m.IPs)
		out.Users[m.Username] = m
		recount = append(recount, m)
	}
	f.countDistinctDownloads(recount)
	for ip, names := range f.ByIP {
		seen := map[string]bool{}
		for _, n := range names {
			if ci, ok := memberOf[n]; ok {
				n = clusters[ci].Usernames[0]
			}
			if !seen[n] {
				seen[n] = true
				out.ByIP[ip] = append(out.ByIP[ip], n)
			}
		}
	}
	return out
}

func dedupSorted(xs []string) []string {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || xs[i-1] != x {
			out = append(out, x)
		}
	}
	return out
}

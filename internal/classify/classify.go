// Package classify implements the publisher-identification pipeline of
// Sections 3.3 and 5.1: building per-username facts from a crawled
// dataset, detecting fake publishers, extracting the top-K group and its
// hosting/commercial split, the username↔IP cross-analysis, promo-URL
// extraction from the three channels, and the business-profile
// classification of the top publishers.
package classify

import (
	"errors"
	"fmt"
	"regexp"
	"slices"
	"sort"
	"strings"

	"btpub/internal/dataset"
	"btpub/internal/geoip"
	"btpub/internal/population"
)

// UserFacts aggregates everything the crawl knows about one username.
type UserFacts struct {
	Username string
	// TorrentIDs published by this username during the window.
	TorrentIDs []int
	// IPs are the identified initial-seeder addresses across its torrents.
	IPs []string
	// ISPs maps each identified IP to its provider.
	ISPs map[string]geoip.Record
	// AccountDeleted is the portal moderation signal (user page gone).
	AccountDeleted bool
	// RemovedTorrents counts window uploads the portal took down.
	RemovedTorrents int
	// Downloads is the number of distinct downloader IPs observed across
	// the username's torrents: an IP that fetched several of the user's
	// torrents counts once.
	Downloads int
}

// Fake reports whether the username is classified as a fake publisher.
// The deciding signal is the one the paper uses: the portal deleted the
// account (footnote 3/8); a majority of removed uploads corroborates.
func (u *UserFacts) Fake() bool {
	if u.AccountDeleted {
		return true
	}
	return len(u.TorrentIDs) > 0 && u.RemovedTorrents*2 > len(u.TorrentIDs)
}

// Facts is the per-username index plus dataset-level context.
type Facts struct {
	Users map[string]*UserFacts
	// ByIP maps each identified publisher IP to the usernames seen on it.
	ByIP map[string][]string
	// DownloadsByTorrent[tid] counts distinct downloader IPs on torrent
	// tid; it has one entry per torrent record.
	DownloadsByTorrent []int
	// Pubs[tid] is torrent tid's publisher address resolved against the
	// geo DB, once per snapshot; the ISP aggregates of Tables 2–3 and
	// Section 6 read it.
	Pubs []PubGeo
	// TotalTorrents and TotalDownloads over the whole dataset.
	// TotalDownloads sums the per-torrent distinct counts (one IP in two
	// torrents is two downloads), matching the paper's Table 1 framing.
	TotalTorrents  int
	TotalDownloads int

	// ds is the indexed dataset: business classification reads its
	// records, and alias merging recounts distinct downloaders over a
	// cluster's combined torrents in its columnar store.
	ds *dataset.Dataset
}

// PubGeo is one torrent's publisher address resolved against the geo DB.
type PubGeo struct {
	geoip.Record
	// Slash16 is the address's /16 prefix (Table 3's prefix count).
	Slash16 uint32
	// OK says the address parsed and lies in the DB; Record and Slash16
	// are zero otherwise.
	OK bool
}

// resolvePub parses and geo-resolves one publisher address.
func resolvePub(db *geoip.DB, ip string) PubGeo {
	addr, err := dataset.ParseIP(ip)
	if err != nil {
		return PubGeo{}
	}
	rec, err := db.Lookup(addr)
	if err != nil {
		return PubGeo{}
	}
	s16, _ := geoip.Slash16(addr) // cannot fail: Lookup admits IPv4 only
	return PubGeo{Record: rec, Slash16: s16, OK: true}
}

// BuildFacts indexes a canonical dataset: record i must carry TorrentID
// i and every observation must name one of the records, as dataset.Merge
// and the lake's readers produce. db resolves publisher IPs to ISPs; it
// may be nil when ISP information is not needed.
func BuildFacts(ds *dataset.Dataset, db *geoip.DB) (*Facts, error) {
	return buildFacts(ds, db, nil)
}

// buildFacts is BuildFacts with optionally injected distinct-download
// counts (see FactsSeed): the two O(observations) passes — per-torrent
// and per-user distinct downloader counting — are skipped when a seed
// supplies their results, everything else is computed identically.
func buildFacts(ds *dataset.Dataset, db *geoip.DB, seed *FactsSeed) (*Facts, error) {
	if ds == nil {
		return nil, errors.New("classify: nil dataset")
	}
	// The observation check reads the per-torrent index: the unseeded
	// distinct-download pass needs it anyway, and a snapshot fold's
	// append path extends its predecessor's in place.
	if n := ds.Obs.Index().Torrents(); n > len(ds.Torrents) {
		return nil, fmt.Errorf("classify: an observation names torrent ID %d, but the dataset has %d records", n-1, len(ds.Torrents))
	}
	f := &Facts{
		Users:              map[string]*UserFacts{},
		ByIP:               map[string][]string{},
		DownloadsByTorrent: make([]int, len(ds.Torrents)),
		Pubs:               make([]PubGeo, len(ds.Torrents)),
		TotalTorrents:      len(ds.Torrents),
		ds:                 ds,
	}
	// Distinct downloader IPs per torrent: one pass over the columnar
	// store's per-torrent index, no per-torrent set maps.
	counts := seed.downloadsByTorrent()
	if counts == nil {
		counts = ds.Obs.DistinctIPCounts()
	}
	for tid, n := range counts {
		f.DownloadsByTorrent[tid] = n
		f.TotalDownloads += n
	}

	users := ds.UserByName()
	geo := map[string]PubGeo{} // one resolution per distinct address
	for i, rec := range ds.Torrents {
		if rec.TorrentID != i {
			return nil, fmt.Errorf("classify: record %d carries torrent ID %d; analysis input must be canonical (dataset.Merge)", i, rec.TorrentID)
		}
		if rec.PublisherIP != "" && db != nil {
			g, ok := geo[rec.PublisherIP]
			if !ok {
				g = resolvePub(db, rec.PublisherIP)
				geo[rec.PublisherIP] = g
			}
			f.Pubs[i] = g
		}
		name := rec.PublisherKey()
		if name == "" {
			continue
		}
		u := f.Users[name]
		if u == nil {
			u = &UserFacts{Username: name, ISPs: map[string]geoip.Record{}}
			// Look the account up by the resolved identity: for mn08-style
			// records the username is empty and the publisher is keyed
			// "ip:<addr>", so probing users[rec.Username] would hit the
			// empty key and the deletion signal could never land.
			if ur, ok := users[name]; ok && !ur.Exists {
				u.AccountDeleted = true
			}
			f.Users[name] = u
		}
		u.TorrentIDs = append(u.TorrentIDs, rec.TorrentID)
		if rec.Removed {
			u.RemovedTorrents++
		}
		if rec.PublisherIP != "" && !slices.Contains(u.IPs, rec.PublisherIP) {
			u.IPs = append(u.IPs, rec.PublisherIP)
			f.ByIP[rec.PublisherIP] = append(f.ByIP[rec.PublisherIP], name)
			if g := f.Pubs[i]; g.OK {
				u.ISPs[rec.PublisherIP] = g.Record
			}
		}
	}
	if seed != nil {
		for _, u := range f.Users {
			u.Downloads = seed.UserDownloads[u.Username]
		}
		return f, nil
	}
	users2 := make([]*UserFacts, 0, len(f.Users))
	for _, u := range f.Users {
		users2 = append(users2, u)
	}
	f.countDistinctDownloads(users2)
	return f, nil
}

// countDistinctDownloads sets each user's Downloads to the number of
// distinct downloader IPs across its torrents — one pass over the
// columnar store's per-torrent spans with an epoch-stamped array over the
// intern table, no per-user set maps. Summing per-torrent distinct counts
// instead would count an IP once per torrent it appears in.
func (f *Facts) countDistinctDownloads(users []*UserFacts) {
	obs := &f.ds.Obs
	ix := obs.Index()
	stamp := make([]int32, obs.IPs().Len())
	for i := range stamp {
		stamp[i] = -1
	}
	for epoch, u := range users {
		mark := int32(epoch)
		n := 0
		for _, tid := range u.TorrentIDs {
			for _, oi := range ix.Span(tid) {
				if ip := obs.IPIndex(int(oi)); stamp[ip] != mark {
					stamp[ip] = mark
					n++
				}
			}
		}
		u.Downloads = n
	}
}

// Groups is the paper's five-way split (Section 4).
type Groups struct {
	// TopK is the size of the "top" cut (the paper's top-100 ≈ 3 %).
	TopK int
	// All is a sample of ordinary publishers (the paper's random 400).
	All []*UserFacts
	// Fake holds every username classified fake.
	Fake []*UserFacts
	// Top holds the top-K by published content with fakes removed.
	Top []*UserFacts
	// TopHP / TopCI split Top by provider type of their identified IPs;
	// usernames without identified IPs appear in neither.
	TopHP []*UserFacts
	TopCI []*UserFacts
}

// BuildGroups extracts the groups. topK <= 0 selects ceil(3 % of
// publishers), floored at 10; sampleSize <= 0 selects min(400, all).
func (f *Facts) BuildGroups(topK, sampleSize int) *Groups {
	all := make([]*UserFacts, 0, len(f.Users))
	for _, u := range f.Users {
		all = append(all, u)
	}
	sort.Slice(all, func(i, j int) bool {
		if len(all[i].TorrentIDs) != len(all[j].TorrentIDs) {
			return len(all[i].TorrentIDs) > len(all[j].TorrentIDs)
		}
		return all[i].Username < all[j].Username
	})
	if topK <= 0 {
		topK = (len(all)*3 + 99) / 100
		if topK < 10 {
			topK = 10
		}
	}
	if topK > len(all) {
		topK = len(all)
	}
	g := &Groups{TopK: topK}
	for _, u := range all {
		if u.Fake() {
			g.Fake = append(g.Fake, u)
		}
	}
	// Top-K non-fake: walk the ranking, skipping fakes, exactly as the
	// paper removed the 16 compromised usernames from its top-100.
	for _, u := range all {
		if len(g.Top) >= topK {
			break
		}
		if u.Fake() {
			continue
		}
		g.Top = append(g.Top, u)
	}
	for _, u := range g.Top {
		hp, ci := 0, 0
		for _, rec := range u.ISPs {
			if rec.Type == geoip.Hosting {
				hp++
			} else {
				ci++
			}
		}
		switch {
		case hp > 0 && hp >= ci:
			g.TopHP = append(g.TopHP, u)
		case ci > 0:
			g.TopCI = append(g.TopCI, u)
		}
	}
	// Random-but-deterministic sample representing standard behaviour
	// ("All" in the figures — the paper's random 400 publishers). Fake
	// accounts are excluded: they are studied as their own group, and the
	// paper uses this sample to characterise ordinary users.
	if sampleSize <= 0 {
		sampleSize = 400
	}
	rest := all[min(topK, len(all)):]
	stride := 1
	if len(rest) > sampleSize {
		stride = len(rest) / sampleSize
	}
	for i := 0; i < len(rest) && len(g.All) < sampleSize; i += stride {
		if rest[i].Fake() {
			continue
		}
		g.All = append(g.All, rest[i])
	}
	return g
}

// ---------------------------------------------------------------------
// Section 3.3 cross-analysis
// ---------------------------------------------------------------------

// CrossAnalysis reproduces the §3.3 numbers.
type CrossAnalysis struct {
	// TopIPs examined (by published files).
	TopIPs int
	// MultiUserIPShare is the fraction of those IPs used by >1 username
	// (the fake-publisher fingerprint; paper: 45 %).
	MultiUserIPShare float64

	// TopUsernames examined.
	TopUsernames int
	// Shares of the paper's four username→IP cases; they sum to <= 1
	// (usernames without identified IPs are unclassified).
	SingleIPShare    float64
	HostingPoolShare float64 // few IPs, hosting providers (34 %)
	DynamicShare     float64 // many IPs, one commercial ISP (24 %)
	MultiISPShare    float64 // several commercial ISPs (16 %)
	// Mean identified-IP counts per case.
	HostingPoolAvgIPs float64
	DynamicAvgIPs     float64
	MultiISPAvgIPs    float64
}

// Cross runs the §3.3 username↔IP cross-analysis over the top-k of each
// dimension (the paper uses 100 for both).
func (f *Facts) Cross(k int) CrossAnalysis {
	if k <= 0 {
		k = 100
	}
	out := CrossAnalysis{}

	// --- Top IPs by published files --------------------------------
	type ipCount struct {
		ip    string
		files int
	}
	fileCount := map[string]int{}
	for _, u := range f.Users {
		for _, ip := range u.IPs {
			fileCount[ip] += len(u.TorrentIDs) / max(1, len(u.IPs))
		}
	}
	ips := make([]ipCount, 0, len(fileCount))
	for ip, n := range fileCount {
		ips = append(ips, ipCount{ip, n})
	}
	sort.Slice(ips, func(i, j int) bool {
		if ips[i].files != ips[j].files {
			return ips[i].files > ips[j].files
		}
		return ips[i].ip < ips[j].ip
	})
	if len(ips) > k {
		ips = ips[:k]
	}
	out.TopIPs = len(ips)
	multi := 0
	for _, ic := range ips {
		if len(f.ByIP[ic.ip]) > 1 {
			multi++
		}
	}
	if out.TopIPs > 0 {
		out.MultiUserIPShare = float64(multi) / float64(out.TopIPs)
	}

	// --- Top usernames by published files ----------------------------
	users := make([]*UserFacts, 0, len(f.Users))
	for _, u := range f.Users {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool {
		if len(users[i].TorrentIDs) != len(users[j].TorrentIDs) {
			return len(users[i].TorrentIDs) > len(users[j].TorrentIDs)
		}
		return users[i].Username < users[j].Username
	})
	if len(users) > k {
		users = users[:k]
	}
	out.TopUsernames = len(users)
	var nSingle, nPool, nDyn, nMulti int
	var sPool, sDyn, sMulti float64
	for _, u := range users {
		switch {
		case len(u.IPs) == 0:
			// Unclassifiable (publisher IP never identified).
		case len(u.IPs) == 1:
			nSingle++
		default:
			hosting, commercialISPs := 0, map[string]bool{}
			for ip, rec := range u.ISPs {
				_ = ip
				if rec.Type == geoip.Hosting {
					hosting++
				} else {
					commercialISPs[rec.ISP] = true
				}
			}
			switch {
			case hosting > 0 && len(commercialISPs) == 0:
				nPool++
				sPool += float64(len(u.IPs))
			case len(commercialISPs) <= 1:
				nDyn++
				sDyn += float64(len(u.IPs))
			default:
				nMulti++
				sMulti += float64(len(u.IPs))
			}
		}
	}
	if out.TopUsernames > 0 {
		n := float64(out.TopUsernames)
		out.SingleIPShare = float64(nSingle) / n
		out.HostingPoolShare = float64(nPool) / n
		out.DynamicShare = float64(nDyn) / n
		out.MultiISPShare = float64(nMulti) / n
	}
	if nPool > 0 {
		out.HostingPoolAvgIPs = sPool / float64(nPool)
	}
	if nDyn > 0 {
		out.DynamicAvgIPs = sDyn / float64(nDyn)
	}
	if nMulti > 0 {
		out.MultiISPAvgIPs = sMulti / float64(nMulti)
	}
	return out
}

// ---------------------------------------------------------------------
// Section 5 promo-URL extraction and business classification
// ---------------------------------------------------------------------

// urlPattern finds promoted domains in free text, file names and bundled
// file names.
var urlPattern = regexp.MustCompile(`(?i)\b((?:www|forum)\.[a-z0-9][a-z0-9-]*\.(?:com|net|org))\b`)

// ExtractPromo scans one torrent record's three channels (Section 5:
// file name, page textbox, bundled file name) and returns the promoted
// URL and the channel it was found in.
func ExtractPromo(rec *dataset.TorrentRecord) (url string, channel population.PromoChannel) {
	if m := urlPattern.FindString(rec.Description); m != "" {
		return strings.ToLower(m), population.PromoTextbox
	}
	if m := urlPattern.FindString(rec.FileName); m != "" {
		return strings.ToLower(m), population.PromoFilename
	}
	for _, bf := range rec.BundledFiles {
		if m := urlPattern.FindString(bf); m != "" {
			return strings.ToLower(m), population.PromoBundledFile
		}
	}
	return "", population.PromoNone
}

// SiteInspector resolves a promoted URL to the business run behind it —
// the mechanised form of the paper's manual site visits. Implemented by
// webmon.Directory.
type SiteInspector interface {
	Inspect(url string) (population.BusinessType, string, error)
}

// BusinessClass is the paper's three-way split of top publishers.
type BusinessClass int

const (
	// Altruist publishers promote nothing.
	Altruist BusinessClass = iota
	// BTPortal publishers promote private BitTorrent portals/trackers.
	BTPortal
	// OtherWeb publishers promote other kinds of web sites.
	OtherWeb
)

// String implements fmt.Stringer.
func (b BusinessClass) String() string {
	switch b {
	case Altruist:
		return "Altruistic Publishers"
	case BTPortal:
		return "BT Portals"
	case OtherWeb:
		return "Other Web sites"
	default:
		return "BusinessClass(?)"
	}
}

// BusinessProfile is the classification result for one top username.
type BusinessProfile struct {
	Username string
	Class    BusinessClass
	URL      string
	Channels map[population.PromoChannel]int // promo sightings per channel
	Language string
	// Content / Downloads shares relative to the whole dataset.
	Torrents  int
	Downloads int
}

// ClassifyBusiness inspects every top publisher's torrents for promo URLs
// and classifies the publisher's business (Section 5.1).
func ClassifyBusiness(f *Facts, g *Groups, insp SiteInspector) ([]BusinessProfile, error) {
	if insp == nil {
		return nil, errors.New("classify: inspector required")
	}
	out := make([]BusinessProfile, 0, len(g.Top))
	for _, u := range g.Top {
		prof := BusinessProfile{
			Username:  u.Username,
			Channels:  map[population.PromoChannel]int{},
			Torrents:  len(u.TorrentIDs),
			Downloads: u.Downloads,
		}
		urlVotes := map[string]int{}
		for _, tid := range u.TorrentIDs {
			if url, ch := ExtractPromo(f.ds.Torrents[tid]); url != "" {
				urlVotes[url]++
				prof.Channels[ch]++
			}
		}
		best, votes := "", 0
		for url, n := range urlVotes {
			if n > votes || (n == votes && url < best) {
				best, votes = url, n
			}
		}
		// A systematic promoter embeds its URL in a majority of uploads;
		// scattered matches are noise.
		if best != "" && votes*2 > len(u.TorrentIDs) {
			prof.URL = best
			biz, lang, err := insp.Inspect(best)
			if err == nil {
				prof.Language = lang
				if biz == population.BusinessPrivatePortal {
					prof.Class = BTPortal
				} else {
					prof.Class = OtherWeb
				}
			} else {
				prof.Class = OtherWeb // site vanished; still a promoter
			}
		} else {
			prof.Class = Altruist
		}
		out = append(out, prof)
	}
	return out, nil
}

// Package population generates the synthetic publisher universe the
// ecosystem simulation runs on.
//
// The paper identifies six behavioural profiles among BitTorrent content
// publishers. This package encodes them as a generative model whose knobs
// are calibrated to the shares the paper measured in its pb10 dataset
// (Sections 3 and 5): fake publishers own ~25 % of usernames and ~30 % of
// content; the top-100 non-fake publishers split into private-portal owners
// (26 %), other-web-site owners (24 %) and altruists (52 %); and the rest is
// a long tail of regular users. The analysis pipeline must *recover* these
// shares from crawled data, which is what makes the reproduction checkable.
package population

import (
	"fmt"
	"net/netip"
	"strings"
	"time"
)

// Class is the ground-truth behavioural profile of a publisher.
type Class int

const (
	// Regular is an ordinary user who publishes a handful of torrents and
	// also consumes content.
	Regular Class = iota
	// FakeAntipiracy is an antipiracy agency injecting decoys for
	// copyrighted titles.
	FakeAntipiracy
	// FakeMalware is a malicious user spreading malware under catchy titles.
	FakeMalware
	// TopPortal is a profit-driven publisher promoting a private BitTorrent
	// portal/tracker.
	TopPortal
	// TopWeb is a profit-driven publisher promoting another kind of web
	// site (image hosting, forum, ...).
	TopWeb
	// TopAltruistic is a heavy publisher with no promotion and no profit
	// motive.
	TopAltruistic
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Regular:
		return "regular"
	case FakeAntipiracy:
		return "fake-antipiracy"
	case FakeMalware:
		return "fake-malware"
	case TopPortal:
		return "top-portal"
	case TopWeb:
		return "top-web"
	case TopAltruistic:
		return "top-altruistic"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// IsFake reports whether the class injects fake content.
func (c Class) IsFake() bool { return c == FakeAntipiracy || c == FakeMalware }

// IsProfit reports whether the class has a financial incentive.
func (c Class) IsProfit() bool { return c == TopPortal || c == TopWeb }

// IsTop reports whether the class belongs to the paper's "Top" group
// (top-100 non-fake publishers).
func (c Class) IsTop() bool {
	return c == TopPortal || c == TopWeb || c == TopAltruistic
}

// Category is a portal content category (The Pirate Bay taxonomy, folded to
// the groups Figure 2 uses).
type Category int

const (
	Movies Category = iota
	TVShows
	Porn
	Music
	Apps
	Games
	Books
	Other
	numCategories
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case Movies:
		return "Movies"
	case TVShows:
		return "TV Shows"
	case Porn:
		return "Porn"
	case Music:
		return "Music"
	case Apps:
		return "Applications"
	case Games:
		return "Games"
	case Books:
		return "Books"
	case Other:
		return "Other"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// IsVideo reports whether the category counts as Video in Figure 2.
func (c Category) IsVideo() bool { return c == Movies || c == TVShows || c == Porn }

// Categories lists all categories in declaration order.
func Categories() []Category {
	out := make([]Category, numCategories)
	for i := range out {
		out[i] = Category(i)
	}
	return out
}

// PromoChannel is where a profit-driven publisher embeds its URL
// (Section 5: file name, page textbox, or a bundled text file).
type PromoChannel int

const (
	PromoNone PromoChannel = iota
	PromoFilename
	PromoTextbox
	PromoBundledFile
)

// String implements fmt.Stringer.
func (p PromoChannel) String() string {
	switch p {
	case PromoNone:
		return "none"
	case PromoFilename:
		return "filename"
	case PromoTextbox:
		return "textbox"
	case PromoBundledFile:
		return "bundled-file"
	default:
		return fmt.Sprintf("PromoChannel(%d)", int(p))
	}
}

// BusinessType describes the promoted web site (Section 5.1).
type BusinessType int

const (
	BusinessNone BusinessType = iota
	BusinessPrivatePortal
	BusinessImageHosting
	BusinessForum
	BusinessReligious
)

// String implements fmt.Stringer.
func (b BusinessType) String() string {
	switch b {
	case BusinessNone:
		return "none"
	case BusinessPrivatePortal:
		return "private BitTorrent portal"
	case BusinessImageHosting:
		return "image hosting"
	case BusinessForum:
		return "forum"
	case BusinessReligious:
		return "religious group"
	default:
		return fmt.Sprintf("BusinessType(%d)", int(b))
	}
}

// Site is a promoted web site with its ground-truth economics. The webmon
// package exposes noisy estimates of these values through six simulated
// monitoring services, mirroring the paper's methodology for Table 5.
type Site struct {
	URL            string
	Business       BusinessType
	DailyVisits    float64 // ground truth unique visits per day
	DailyIncomeUSD float64 // ground truth income per day
	ValueUSD       float64 // ground truth site valuation
	Language       string  // "" = international; else ISO code (es, it, nl, sv)
}

// Scenario is a bitmask of adversarial publisher behaviour profiles: the
// hostile patterns the paper's crawler met on Mininova and The Pirate Bay,
// layered on top of the cooperative base world. The zero value leaves the
// base world untouched.
type Scenario uint

const (
	// ScenarioAliasing converts some profit-driven top publishers into
	// multi-account operators: uploads rotate round-robin across several
	// portal usernames that all seed from the operator's one IP pool —
	// §3.3's "45 % of the top IPs are used by more than one username".
	ScenarioAliasing Scenario = 1 << iota
	// ScenarioIPChurn puts some commercial-ISP top publishers on fast
	// dynamic-IP churn, a fresh address from the same provider for almost
	// every upload (the paper's 24 % dynamic case, exaggerated).
	ScenarioIPChurn
	// ScenarioFakeBlitz adds an antipiracy agency that mass-publishes its
	// whole decoy inventory in a short burst, all of it taken down by
	// moderation — the mn08-style index-poisoning wave.
	ScenarioFakeBlitz
	// ScenarioAccountPurge adds top-scale fake publishers that keep one
	// long-lived account until the portal deletes the account and every
	// live upload wholesale mid-campaign (the paper's 16 compromised
	// usernames removed from its top-100).
	ScenarioAccountPurge
)

// AllScenarios enables every adversarial profile.
const AllScenarios = ScenarioAliasing | ScenarioIPChurn | ScenarioFakeBlitz | ScenarioAccountPurge

// Has reports whether the mask includes profile f.
func (s Scenario) Has(f Scenario) bool { return s&f != 0 }

// String implements fmt.Stringer ("none" for the empty mask).
func (s Scenario) String() string {
	if s == 0 {
		return "none"
	}
	var parts []string
	for _, e := range scenarioNames {
		if s.Has(e.flag) {
			parts = append(parts, e.name)
		}
	}
	return strings.Join(parts, "+")
}

var scenarioNames = []struct {
	name string
	flag Scenario
}{
	{"alias", ScenarioAliasing},
	{"churn", ScenarioIPChurn},
	{"blitz", ScenarioFakeBlitz},
	{"purge", ScenarioAccountPurge},
}

// ParseScenarios maps a comma-separated profile list ("alias,churn,
// blitz,purge"; "all"; "none" or "") to its Scenario mask.
func ParseScenarios(s string) (Scenario, error) {
	var out Scenario
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(strings.ToLower(f))
		switch f {
		case "", "none":
			continue
		case "all":
			out |= AllScenarios
			continue
		}
		found := false
		for _, e := range scenarioNames {
			if f == e.name {
				out |= e.flag
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("population: unknown scenario %q", f)
		}
	}
	return out, nil
}

// IPPolicy describes how a publisher's observable IP address evolves.
type IPPolicy int

const (
	// IPStatic publishers keep one address for the whole campaign.
	IPStatic IPPolicy = iota
	// IPPool publishers rotate over a small pool of hosting-provider
	// servers (the paper's 34 % case, 5.7 IPs on average).
	IPPool
	// IPDynamic publishers sit behind one commercial ISP that periodically
	// reassigns their address (24 % case, 13.8 IPs on average).
	IPDynamic
	// IPMultiHome publishers inject from several locations/ISPs
	// (16 % case, 7.7 IPs on average).
	IPMultiHome
)

// String implements fmt.Stringer.
func (p IPPolicy) String() string {
	switch p {
	case IPStatic:
		return "static"
	case IPPool:
		return "pool"
	case IPDynamic:
		return "dynamic"
	case IPMultiHome:
		return "multihome"
	default:
		return fmt.Sprintf("IPPolicy(%d)", int(p))
	}
}

// SeedPolicy captures the seeding behaviour knobs of Section 4.3.
type SeedPolicy struct {
	// MinSeed is how long the publisher keeps seeding a torrent even after
	// the swarm is self-sustaining.
	MinSeed time.Duration
	// TargetSeeders is the number of non-publisher seeders after which the
	// publisher abandons the swarm (0 = seed forever while online).
	TargetSeeders int
	// MaxParallel caps the torrents the publisher seeds concurrently;
	// excess torrents queue.
	MaxParallel int
	// DailyOnline is the length of the publisher's daily online window
	// (24 h for hosted servers, a few hours for home users).
	DailyOnline time.Duration
	// OnlineStart is the hour-of-day the daily window opens (ignored for
	// 24 h publishers).
	OnlineStart int
}

// AlwaysOn reports whether the publisher is online around the clock.
func (s SeedPolicy) AlwaysOn() bool { return s.DailyOnline >= 24*time.Hour }

// Publisher is one ground-truth publishing entity. Fake entities control
// many portal usernames; everyone else has exactly one.
type Publisher struct {
	ID        int
	Class     Class
	Usernames []string
	// ISP is the primary provider; MultiHome publishers have extras.
	ISP       string
	ExtraISPs []string
	// IPs is the pool of addresses the entity uses during the campaign,
	// ordered; the IPPolicy decides which one is active when.
	IPs      []netip.Addr
	IPPolicy IPPolicy
	// RotatePeriod is the mean time between address changes for IPDynamic
	// and IPPool policies.
	RotatePeriod time.Duration

	Site  *Site // nil unless profit-driven
	Promo []PromoChannel

	// NATed publishers cannot accept inbound wire connections, so the
	// crawler can never confirm their IP (one of the two reasons the paper
	// identifies the publisher's address for only ~40 % of torrents).
	NATed bool

	// AccountCreated is when the (first) username registered on the portal;
	// drives Table 4's lifetime column.
	AccountCreated time.Time
	// HistoricalTorrents is how many torrents the account published before
	// the measurement campaign (visible on the username page).
	HistoricalTorrents int

	// PublishOffset/PublishSpan constrain this publisher's upload times to
	// [Start+Offset, Start+Offset+Span] instead of the whole campaign
	// (zero Span = whole campaign). The fake-blitz scenario uses this to
	// mass-publish a decoy wave in a short window.
	PublishOffset time.Duration
	PublishSpan   time.Duration

	// StickyAccount marks a fake entity that keeps one long-lived username
	// instead of rotating throwaways; PurgeAt is when the portal deletes
	// the account — and every live upload with it — wholesale.
	StickyAccount bool
	PurgeAt       time.Time

	// PubRate is the expected number of torrents published per day during
	// the campaign.
	PubRate float64
	Seed    SeedPolicy
	// ConsumeRate is the expected number of other publishers' torrents this
	// entity downloads per day (regular users > 0; hosted seeders 0).
	ConsumeRate float64

	// CatWeights is this publisher's content-category mix.
	CatWeights [numCategories]float64
}

// AliasOperator reports whether the publisher runs several long-lived
// portal accounts off one seeder pool (the aliasing scenario) — as opposed
// to fake entities, whose many usernames are rotating throwaways.
func (p *Publisher) AliasOperator() bool {
	return len(p.Usernames) > 1 && !p.Class.IsFake()
}

// ActiveIP returns the address the publisher uses at time t (relative to
// the campaign start). The rotation schedule is deterministic.
func (p *Publisher) ActiveIP(sinceStart time.Duration) netip.Addr {
	if len(p.IPs) == 0 {
		return netip.Addr{}
	}
	switch p.IPPolicy {
	case IPStatic:
		return p.IPs[0]
	case IPPool, IPDynamic, IPMultiHome:
		period := p.RotatePeriod
		if period <= 0 {
			period = 48 * time.Hour
		}
		idx := int(sinceStart/period) % len(p.IPs)
		if idx < 0 {
			idx = 0
		}
		return p.IPs[idx]
	default:
		return p.IPs[0]
	}
}

// Torrent is one ground-truth published content item.
type Torrent struct {
	ID        int
	Title     string // display title on the portal
	FileName  string // name inside the .torrent (promo channel i)
	Category  Category
	SizeBytes int64
	Language  string

	PublisherID int
	Username    string // the portal account used for this upload
	Published   time.Time

	Fake        bool
	Malware     bool
	Copyrighted bool

	PromoChannel PromoChannel
	PromoURL     string
	Description  string   // portal page textbox (promo channel ii)
	BundledFiles []string // extra files in the bundle (promo channel iii)

	// Lambda0 is the initial downloader arrival rate (peers/day);
	// TauDays is the exponential decay constant of interest.
	Lambda0 float64
	TauDays float64

	// RemovalAfter is how long the portal takes to detect and remove this
	// torrent (fake content only; zero = never removed). Ground truth for
	// the portal moderation process.
	RemovalAfter time.Duration

	// ContentSeed identifies the synthetic payload (drives piece hashes).
	ContentSeed uint64
}

// ExpectedDownloads integrates the arrival rate over a horizon, ignoring
// removal (fake torrents are cut short by portal moderation).
func (t *Torrent) ExpectedDownloads(horizon time.Duration) float64 {
	days := horizon.Hours() / 24
	if days <= 0 || t.Lambda0 <= 0 || t.TauDays <= 0 {
		return 0
	}
	// ∫ λ0 e^(-t/τ) dt from 0 to days = λ0 τ (1 - e^(-days/τ))
	return t.Lambda0 * t.TauDays * (1 - expNeg(days/t.TauDays))
}

func expNeg(x float64) float64 {
	// small helper to keep math import local to generate.go
	if x > 700 {
		return 0
	}
	return mathExp(-x)
}

// World is the complete generated universe.
type World struct {
	Params     Params
	Publishers []*Publisher
	Torrents   []*Torrent
	Sites      []*Site
	Start      time.Time // campaign start
}

// TorrentShareByClass tallies the fraction of torrents per class.
func (w *World) TorrentShareByClass() map[Class]float64 {
	counts := map[Class]int{}
	for _, t := range w.Torrents {
		counts[w.Publishers[t.PublisherID].Class]++
	}
	out := map[Class]float64{}
	for c, n := range counts {
		out[c] = float64(n) / float64(len(w.Torrents))
	}
	return out
}

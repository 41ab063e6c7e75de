package crawler

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"strings"

	"btpub/internal/metainfo"
	"btpub/internal/portal"
	"btpub/internal/tracker"
)

// InProcessPortal adapts a *portal.Portal without sockets. The rendering
// and scraping codepaths are still exercised: the feed is generated as XML
// and parsed back, pages are rendered to HTML and scraped. Because the
// crawler polls far more often than the portal changes, the parsed feed is
// cached against the portal's revision counter — the XML round-trip only
// happens when the index actually changed.
type InProcessPortal struct {
	P *portal.Portal

	cacheRev uint64
	cacheOK  bool
	cached   []portal.FeedItem
}

// SimPortalURL is the root of every link an InProcessPortal's feed
// carries, and so of the page URLs its FinalSweep callers build.
const SimPortalURL = "http://portal.sim"

// FetchRSS implements PortalClient. Callers must not mutate the returned
// items (the crawler copies each item it processes).
func (c *InProcessPortal) FetchRSS(context.Context) ([]portal.FeedItem, error) {
	rev := c.P.Revision()
	if c.cacheOK && c.cacheRev == rev {
		return c.cached, nil
	}
	raw, err := c.P.RSS(SimPortalURL, portal.DefaultRSSWindow)
	if err != nil {
		return nil, err
	}
	items, err := portal.ParseRSS(raw)
	if err != nil {
		return nil, err
	}
	c.cacheRev, c.cacheOK, c.cached = rev, true, items
	return items, nil
}

// hashFromURL extracts the info-hash from /torrent/<hex>.torrent or
// /page/<hex> URLs.
func hashFromURL(url string) (metainfo.Hash, error) {
	s := url
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		s = s[i+1:]
	}
	s = strings.TrimSuffix(s, ".torrent")
	if len(s) != 40 {
		return metainfo.Hash{}, fmt.Errorf("crawler: bad hash in URL %q", url)
	}
	var ih metainfo.Hash
	for i := 0; i < 20; i++ {
		var v byte
		for j := 0; j < 2; j++ {
			c := s[2*i+j]
			v <<= 4
			switch {
			case c >= '0' && c <= '9':
				v |= c - '0'
			case c >= 'a' && c <= 'f':
				v |= c - 'a' + 10
			case c >= 'A' && c <= 'F':
				v |= c - 'A' + 10
			default:
				return metainfo.Hash{}, fmt.Errorf("crawler: bad hash in URL %q", url)
			}
		}
		ih[i] = v
	}
	return ih, nil
}

// FetchTorrent implements PortalClient.
func (c *InProcessPortal) FetchTorrent(_ context.Context, url string) ([]byte, error) {
	ih, err := hashFromURL(url)
	if err != nil {
		return nil, err
	}
	e, err := c.P.Entry(ih)
	if err != nil {
		return nil, err
	}
	return e.TorrentData, nil
}

// FetchPage implements PortalClient.
func (c *InProcessPortal) FetchPage(_ context.Context, url string) (*portal.PageData, error) {
	ih, err := hashFromURL(url)
	if err != nil {
		return nil, err
	}
	e, err := c.P.Entry(ih)
	if err != nil {
		return nil, err
	}
	return portal.ParsePage(portal.RenderPage(e))
}

// FetchUserPage implements PortalClient.
func (c *InProcessPortal) FetchUserPage(_ context.Context, username string) (*portal.UserPageData, error) {
	acc, err := c.P.Account(username)
	if err != nil {
		return nil, err
	}
	return portal.ParseUserPage(portal.RenderUserPage(acc))
}

var _ PortalClient = (*InProcessPortal)(nil)

// InProcessTracker adapts a *tracker.Tracker; each vantage announces from
// its own client address, so the tracker's per-client rate limiting
// applies exactly as over HTTP.
type InProcessTracker struct {
	T        *tracker.Tracker
	Vantages []netip.Addr
}

// DefaultVantages builds n distinct vantage addresses.
func DefaultVantages(n int) []netip.Addr {
	out := make([]netip.Addr, n)
	for i := range out {
		out[i] = netip.AddrFrom4([4]byte{198, 51, 100, byte(i + 1)})
	}
	return out
}

// Announce implements TrackerClient.
func (c *InProcessTracker) Announce(_ context.Context, _ string, ih metainfo.Hash, vantage, numWant int) (*tracker.AnnounceResponse, error) {
	if len(c.Vantages) == 0 {
		return nil, errors.New("crawler: no vantage addresses configured")
	}
	req := &tracker.AnnounceRequest{
		InfoHash: ih,
		NumWant:  numWant,
		Client:   c.Vantages[vantage%len(c.Vantages)],
	}
	return c.T.Announce(req)
}

var _ TrackerClient = (*InProcessTracker)(nil)

package crawler

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"net/url"

	"btpub/internal/metainfo"
	"btpub/internal/portal"
	"btpub/internal/tracker"
)

// HTTPPortal is the network-mode PortalClient: it talks to a live portal
// over HTTP and scrapes its pages, exactly like the paper's crawler. Like
// InProcessPortal it parses the feed only when it changed: it sends the
// last feed's ETag as If-None-Match and reuses the parsed items on a 304.
type HTTPPortal struct {
	BaseURL string

	etag   string
	cached []portal.FeedItem
}

// do sends a GET for target, with If-None-Match when etag is set. A 404 is
// portal.ErrNotFound; any status but 200 (or 304 to a conditional GET) is
// an error. The caller closes the response body.
func (c *HTTPPortal) do(ctx context.Context, target, etag string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return nil, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		return resp, nil
	case resp.StatusCode == http.StatusNotModified && etag != "":
		return resp, nil
	case resp.StatusCode == http.StatusNotFound:
		err = portal.ErrNotFound
	default:
		err = fmt.Errorf("crawler: GET %s -> %d", target, resp.StatusCode)
	}
	resp.Body.Close()
	return nil, err
}

func readBody(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(io.LimitReader(resp.Body, 8<<20))
}

func (c *HTTPPortal) get(ctx context.Context, target string) ([]byte, error) {
	resp, err := c.do(ctx, target, "")
	if err != nil {
		return nil, err
	}
	return readBody(resp)
}

// FetchRSS implements PortalClient. Callers must not mutate the returned
// items (the crawler copies each item it processes).
func (c *HTTPPortal) FetchRSS(ctx context.Context) ([]portal.FeedItem, error) {
	resp, err := c.do(ctx, c.BaseURL+"/rss", c.etag)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusNotModified {
		resp.Body.Close()
		return c.cached, nil
	}
	etag := resp.Header.Get("ETag")
	body, err := readBody(resp)
	if err != nil {
		return nil, err
	}
	items, err := portal.ParseRSS(body)
	if err != nil {
		return nil, err
	}
	c.etag, c.cached = etag, items
	return items, nil
}

// FetchTorrent implements PortalClient.
func (c *HTTPPortal) FetchTorrent(ctx context.Context, url string) ([]byte, error) {
	return c.get(ctx, url)
}

// FetchPage implements PortalClient.
func (c *HTTPPortal) FetchPage(ctx context.Context, url string) (*portal.PageData, error) {
	body, err := c.get(ctx, url)
	if err != nil {
		return nil, err
	}
	return portal.ParsePage(body)
}

// FetchUserPage implements PortalClient. The portal accepts any non-empty
// username, so the name is path-escaped: a '?', '#', '%' or '/' in it
// must not address another page.
func (c *HTTPPortal) FetchUserPage(ctx context.Context, username string) (*portal.UserPageData, error) {
	body, err := c.get(ctx, c.BaseURL+"/user/"+url.PathEscape(username))
	if err != nil {
		return nil, err
	}
	return portal.ParseUserPage(body)
}

var _ PortalClient = (*HTTPPortal)(nil)

// HTTPTracker is the network-mode TrackerClient; each vantage announces
// with its own identity so the tracker's rate limiter treats them as the
// paper's geographically distributed machines.
type HTTPTracker struct {
	Vantages []netip.Addr
}

// Announce implements TrackerClient.
func (c *HTTPTracker) Announce(ctx context.Context, announceURL string, ih metainfo.Hash, vantage, numWant int) (*tracker.AnnounceResponse, error) {
	cl := &tracker.Client{}
	if len(c.Vantages) > 0 {
		cl.Vantage = c.Vantages[vantage%len(c.Vantages)]
	}
	var pid [20]byte
	copy(pid[:], fmt.Sprintf("-BTPUB0-vantage%05d", vantage))
	return cl.Announce(ctx, announceURL, ih, pid, numWant)
}

var _ TrackerClient = (*HTTPTracker)(nil)

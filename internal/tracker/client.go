package tracker

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"net/url"
	"strings"
	"time"

	"btpub/internal/bencode"
	"btpub/internal/metainfo"
)

// Client announces to an HTTP tracker over http.DefaultClient; it is what
// the crawler's HTTPTracker uses over real sockets (btpub-crawl -sockets).
type Client struct {
	// Vantage identifies the crawling machine; sent as X-Vantage-Addr so a
	// simulated tracker can rate-limit per vantage point even when all
	// vantages share 127.0.0.1.
	Vantage netip.Addr
}

// ErrFailure wraps a tracker "failure reason" reply.
type ErrFailure struct {
	Reason string
}

// Error implements error.
func (e *ErrFailure) Error() string { return "tracker failure: " + e.Reason }

// IsRateLimited reports whether the failure is the rate limiter speaking.
func (e *ErrFailure) IsRateLimited() bool {
	return strings.Contains(e.Reason, "rate exceeded")
}

// Announce performs one announce and parses the reply.
func (c *Client) Announce(ctx context.Context, announceURL string, ih metainfo.Hash, peerID [20]byte, numWant int) (*AnnounceResponse, error) {
	u, err := url.Parse(announceURL)
	if err != nil {
		return nil, fmt.Errorf("tracker client: bad announce URL: %w", err)
	}
	q := url.Values{}
	q.Set("peer_id", string(peerID[:]))
	q.Set("port", "6881")
	q.Set("uploaded", "0")
	q.Set("downloaded", "0")
	q.Set("left", "1")
	q.Set("compact", "1")
	if numWant > 0 {
		q.Set("numwant", fmt.Sprint(numWant))
	}
	// info_hash needs raw percent-encoding of arbitrary bytes.
	u.RawQuery = "info_hash=" + escapeBytes(ih[:]) + "&" + q.Encode()

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return nil, err
	}
	if c.Vantage.IsValid() {
		req.Header.Set("X-Vantage-Addr", c.Vantage.String())
	}
	httpResp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(httpResp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	if httpResp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("tracker client: HTTP %d: %s", httpResp.StatusCode, body)
	}
	return ParseAnnounceResponse(body)
}

// ParseAnnounceResponse decodes a bencoded announce reply (compact or
// dictionary peer form) or returns *ErrFailure.
func ParseAnnounceResponse(body []byte) (*AnnounceResponse, error) {
	v, err := bencode.Decode(body)
	if err != nil {
		return nil, fmt.Errorf("tracker client: bad bencode reply: %w", err)
	}
	d, ok := v.(bencode.Dict)
	if !ok {
		return nil, errors.New("tracker client: reply is not a dictionary")
	}
	if reason, ok := d["failure reason"].(string); ok {
		return nil, &ErrFailure{Reason: reason}
	}
	resp := &AnnounceResponse{}
	if iv, ok := d["interval"].(int64); ok {
		resp.Interval = time.Duration(iv) * time.Second
	}
	if iv, ok := d["min interval"].(int64); ok {
		resp.MinInterval = time.Duration(iv) * time.Second
	}
	if n, ok := d["complete"].(int64); ok {
		resp.Seeders = int(n)
	}
	if n, ok := d["incomplete"].(int64); ok {
		resp.Leechers = int(n)
	}
	switch peers := d["peers"].(type) {
	case string:
		ps, err := ParseCompactPeers([]byte(peers))
		if err != nil {
			return nil, err
		}
		resp.Peers = ps
	case bencode.List:
		for _, item := range peers {
			pd, ok := item.(bencode.Dict)
			if !ok {
				return nil, errors.New("tracker client: bad peer dict")
			}
			ipStr, _ := pd["ip"].(string)
			port, _ := pd["port"].(int64)
			addr, err := netip.ParseAddr(ipStr)
			if err != nil {
				return nil, fmt.Errorf("tracker client: bad peer ip %q", ipStr)
			}
			resp.Peers = append(resp.Peers, PeerAddr{IP: addr, Port: uint16(port)})
		}
	case nil:
		// Empty swarm: some trackers omit the key entirely.
	default:
		return nil, fmt.Errorf("tracker client: unsupported peers type %T", peers)
	}
	return resp, nil
}

// escapeBytes percent-encodes every byte (the safe, always-correct form
// for binary query parameters).
func escapeBytes(b []byte) string {
	const hexdigits = "0123456789ABCDEF"
	var sb strings.Builder
	sb.Grow(3 * len(b))
	for _, c := range b {
		sb.WriteByte('%')
		sb.WriteByte(hexdigits[c>>4])
		sb.WriteByte(hexdigits[c&0x0F])
	}
	return sb.String()
}

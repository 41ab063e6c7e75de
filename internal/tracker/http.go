package tracker

import (
	"errors"
	"fmt"
	"net/http"
	"net/netip"
	"net/url"
	"strconv"

	"btpub/internal/bencode"
	"btpub/internal/metainfo"
)

// Handler exposes the tracker over HTTP at /announce with the standard
// BitTorrent query encoding.
type Handler struct {
	T *Tracker
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/announce" {
		http.NotFound(w, r)
		return
	}
	h.serveAnnounce(w, r)
}

func (h *Handler) serveAnnounce(w http.ResponseWriter, r *http.Request) {
	req, err := ParseAnnounceQuery(r.URL.RawQuery)
	if err != nil {
		writeFailure(w, err.Error())
		return
	}
	if req.Client = clientAddr(r); !req.Client.IsValid() {
		writeFailure(w, "tracker: cannot determine client address")
		return
	}
	resp, err := h.T.Announce(req)
	switch {
	case errors.Is(err, ErrTooSoon):
		writeFailure(w, "announce rate exceeded: retry after min interval")
		return
	case errors.Is(err, ErrUnknownSwarm):
		writeFailure(w, "unregistered info_hash")
		return
	case err != nil:
		writeFailure(w, err.Error())
		return
	}
	body, err := EncodeAnnounceResponse(resp, req.Compact)
	if err != nil {
		writeFailure(w, err.Error())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=iso-8859-1")
	_, _ = w.Write(body)
}

func writeFailure(w http.ResponseWriter, reason string) {
	body, err := bencode.Marshal(bencode.Dict{"failure reason": reason})
	if err != nil {
		http.Error(w, reason, http.StatusInternalServerError)
		return
	}
	// Trackers answer failures with 200 + bencoded body, per convention.
	w.Header().Set("Content-Type", "text/plain; charset=iso-8859-1")
	_, _ = w.Write(body)
}

func clientAddr(r *http.Request) netip.Addr {
	// The crawler labels its vantage point explicitly (several
	// geographically distributed machines in the paper); fall back to the
	// TCP source address.
	if v := r.Header.Get("X-Vantage-Addr"); v != "" {
		if a, err := netip.ParseAddr(v); err == nil {
			return a
		}
	}
	ap, err := netip.ParseAddrPort(r.RemoteAddr)
	if err != nil {
		return netip.Addr{}
	}
	return ap.Addr()
}

// ParseAnnounceQuery parses the raw (percent-encoded) query string of an
// announce URL. The info_hash and peer_id parameters carry raw bytes and
// must not go through net/url's UTF-8-oblivious form parsing, hence the
// manual splitting.
func ParseAnnounceQuery(rawQuery string) (*AnnounceRequest, error) {
	req := &AnnounceRequest{}
	ihs, err := splitQueryValues(rawQuery, "info_hash")
	if err != nil {
		return nil, err
	}
	if len(ihs) != 1 {
		return nil, fmt.Errorf("tracker: announce needs exactly one info_hash, got %d", len(ihs))
	}
	req.InfoHash, err = hashFromQuery(ihs[0])
	if err != nil {
		return nil, err
	}
	pids, err := splitQueryValues(rawQuery, "peer_id")
	if err != nil {
		return nil, err
	}
	if len(pids) == 1 {
		dec, err := url.QueryUnescape(pids[0])
		if err != nil || len(dec) != 20 {
			return nil, errors.New("tracker: peer_id must be 20 bytes")
		}
		copy(req.PeerID[:], dec)
	}
	get := func(key string) string {
		vs, err := splitQueryValues(rawQuery, key)
		if err != nil || len(vs) == 0 {
			return ""
		}
		dec, err := url.QueryUnescape(vs[0])
		if err != nil {
			return ""
		}
		return dec
	}
	if p := get("port"); p != "" {
		v, err := strconv.ParseUint(p, 10, 16)
		if err != nil {
			return nil, fmt.Errorf("tracker: bad port %q", p)
		}
		req.Port = uint16(v)
	}
	if nw := get("numwant"); nw != "" {
		v, err := strconv.Atoi(nw)
		if err != nil {
			return nil, fmt.Errorf("tracker: bad numwant %q", nw)
		}
		req.NumWant = v
	}
	req.Event = get("event")
	switch req.Event {
	case "", "started", "stopped", "completed":
	default:
		return nil, fmt.Errorf("tracker: bad event %q", req.Event)
	}
	req.Compact = get("compact") != "0" // compact is the modern default
	return req, nil
}

// splitQueryValues extracts the raw values of key from a query string
// without decoding them (needed for binary parameters).
func splitQueryValues(rawQuery, key string) ([]string, error) {
	var out []string
	for _, kv := range splitOn(rawQuery, '&') {
		eq := -1
		for i := 0; i < len(kv); i++ {
			if kv[i] == '=' {
				eq = i
				break
			}
		}
		if eq < 0 {
			continue
		}
		if kv[:eq] == key {
			out = append(out, kv[eq+1:])
		}
	}
	return out, nil
}

func splitOn(s string, sep byte) []string {
	var parts []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == sep {
			parts = append(parts, s[start:i])
			start = i + 1
		}
	}
	return parts
}

func hashFromQuery(raw string) (metainfo.Hash, error) {
	dec, err := url.QueryUnescape(raw)
	if err != nil {
		return metainfo.Hash{}, fmt.Errorf("tracker: bad info_hash encoding: %w", err)
	}
	if len(dec) != 20 {
		return metainfo.Hash{}, fmt.Errorf("tracker: info_hash must be 20 bytes, got %d", len(dec))
	}
	var ih metainfo.Hash
	copy(ih[:], dec)
	return ih, nil
}

// EncodeAnnounceResponse renders the bencoded announce reply.
func EncodeAnnounceResponse(resp *AnnounceResponse, compact bool) ([]byte, error) {
	d := bencode.Dict{
		"interval":     int64(resp.Interval.Seconds()),
		"min interval": int64(resp.MinInterval.Seconds()),
		"complete":     int64(resp.Seeders),
		"incomplete":   int64(resp.Leechers),
	}
	if compact {
		blob, err := CompactPeers(resp.Peers)
		if err != nil {
			return nil, err
		}
		d["peers"] = string(blob)
	} else {
		list := make(bencode.List, 0, len(resp.Peers))
		for _, p := range resp.Peers {
			list = append(list, bencode.Dict{
				"ip":   p.IP.String(),
				"port": int64(p.Port),
			})
		}
		d["peers"] = list
	}
	return bencode.Marshal(d)
}

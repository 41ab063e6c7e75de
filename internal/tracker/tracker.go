// Package tracker implements a BitTorrent HTTP tracker (BEP 3) with compact
// peer lists (BEP 23), plus the matching client used by the crawler.
//
// The paper's measurement leans on three tracker behaviours that this
// implementation reproduces faithfully:
//
//   - announce responses carry the current seeder ("complete") and leecher
//     ("incomplete") counts, which the crawler uses to decide whether the
//     initial-seeder identification is even possible;
//   - each response returns at most MaxPeers (200) member addresses drawn
//     at random from the swarm, so large swarms are only ever observed
//     through random subsets — the reason Appendix A needs a probabilistic
//     session estimator;
//   - clients are rate-limited to one announce per swarm per 10–15 minutes;
//     faster queries are rejected, which is why the paper crawls from
//     several geographically distributed vantage points.
package tracker

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"btpub/internal/metainfo"
	"btpub/internal/swarm"
)

// MaxPeers is the largest peer list a tracker hands out per announce
// (the paper's trackers returned at most 200 IPs).
const MaxPeers = 200

// DefaultNumWant is the peer count returned when the client does not ask
// for a specific number (BitTorrent convention).
const DefaultNumWant = 50

// MinInterval is the shortest allowed spacing between two announces from
// the same client for the same swarm.
const MinInterval = 10 * time.Minute

// Interval is the re-announce interval advertised to clients.
const Interval = 15 * time.Minute

// ErrUnknownSwarm is returned for announces to unregistered info-hashes.
var ErrUnknownSwarm = errors.New("tracker: unknown info-hash")

// ErrTooSoon is returned when a client re-announces before MinInterval.
var ErrTooSoon = errors.New("tracker: announce rate exceeded, retry later")

// Store answers swarm-state queries. The ecosystem implements it over the
// simulated swarms; tests can stub it.
type Store interface {
	// Snapshot returns up to maxPeers members of the swarm at now plus the
	// full seeder/leecher counts. It must return ErrUnknownSwarm for
	// unregistered hashes.
	Snapshot(ih metainfo.Hash, now time.Time, maxPeers int) (members []swarm.Member, seeders, leechers int, err error)
}

// AnnounceRequest is a parsed announce.
type AnnounceRequest struct {
	InfoHash metainfo.Hash
	PeerID   [20]byte
	Port     uint16
	NumWant  int
	Event    string // "", "started", "stopped", "completed"
	Compact  bool
	// Client identity for rate limiting (by remote address).
	Client netip.Addr
}

// AnnounceResponse mirrors the bencoded tracker reply.
type AnnounceResponse struct {
	Interval    time.Duration
	MinInterval time.Duration
	Seeders     int // "complete"
	Leechers    int // "incomplete"
	Peers       []PeerAddr
}

// PeerAddr is one peer endpoint in a tracker response.
type PeerAddr struct {
	IP   netip.Addr
	Port uint16
}

// Tracker is the announce engine, independent of HTTP transport.
type Tracker struct {
	store Store
	now   func() time.Time

	mu   sync.Mutex
	last map[rateKey]time.Time
}

type rateKey struct {
	client netip.Addr
	ih     metainfo.Hash
}

// New builds a tracker over the store; now supplies the current (possibly
// virtual) time.
func New(store Store, now func() time.Time) (*Tracker, error) {
	if store == nil {
		return nil, errors.New("tracker: nil store")
	}
	if now == nil {
		return nil, errors.New("tracker: nil clock")
	}
	return &Tracker{store: store, now: now, last: map[rateKey]time.Time{}}, nil
}

// Announce handles one announce request.
func (t *Tracker) Announce(req *AnnounceRequest) (*AnnounceResponse, error) {
	if req == nil {
		return nil, errors.New("tracker: nil request")
	}
	now := t.now()
	if err := t.checkRate(req, now); err != nil {
		return nil, err
	}
	numWant := req.NumWant
	if numWant <= 0 {
		numWant = DefaultNumWant
	}
	if numWant > MaxPeers {
		numWant = MaxPeers
	}
	members, seeders, leechers, err := t.store.Snapshot(req.InfoHash, now, numWant)
	if err != nil {
		return nil, err
	}
	resp := &AnnounceResponse{
		Interval:    Interval,
		MinInterval: MinInterval,
		Seeders:     seeders,
		Leechers:    leechers,
	}
	if len(members) > 0 {
		resp.Peers = make([]PeerAddr, len(members))
		for i, m := range members {
			resp.Peers[i] = PeerAddr{IP: m.IP, Port: peerPort(m.IP)}
		}
	}
	return resp, nil
}

// checkRate enforces MinInterval per (client, swarm). "stopped" events are
// exempt (clients should always be able to deregister).
func (t *Tracker) checkRate(req *AnnounceRequest, now time.Time) error {
	if req.Event == "stopped" || !req.Client.IsValid() {
		return nil
	}
	key := rateKey{req.Client, req.InfoHash}
	t.mu.Lock()
	defer t.mu.Unlock()
	if last, ok := t.last[key]; ok && now.Sub(last) < MinInterval {
		return ErrTooSoon
	}
	t.last[key] = now
	return nil
}

// peerPort derives a stable synthetic listen port for a peer address.
// Real swarms have arbitrary ports; deriving them from the address keeps
// the simulation deterministic while exercising the full wire format.
func peerPort(ip netip.Addr) uint16 {
	b := ip.As4()
	p := uint16(b[2])<<8 | uint16(b[3])
	if p < 1024 {
		p += 1024
	}
	return p
}

// CompactPeers encodes peers in BEP 23 compact form (4 bytes IP + 2 bytes
// port, big endian).
func CompactPeers(peers []PeerAddr) ([]byte, error) {
	out := make([]byte, 0, 6*len(peers))
	for _, p := range peers {
		if !p.IP.Is4() {
			return nil, fmt.Errorf("tracker: compact form needs IPv4, got %v", p.IP)
		}
		b := p.IP.As4()
		out = append(out, b[0], b[1], b[2], b[3], byte(p.Port>>8), byte(p.Port))
	}
	return out, nil
}

// ParseCompactPeers decodes BEP 23 compact peer bytes.
func ParseCompactPeers(data []byte) ([]PeerAddr, error) {
	if len(data)%6 != 0 {
		return nil, fmt.Errorf("tracker: compact peers length %d not a multiple of 6", len(data))
	}
	out := make([]PeerAddr, 0, len(data)/6)
	for i := 0; i < len(data); i += 6 {
		ip := netip.AddrFrom4([4]byte{data[i], data[i+1], data[i+2], data[i+3]})
		port := uint16(data[i+4])<<8 | uint16(data[i+5])
		out = append(out, PeerAddr{IP: ip, Port: port})
	}
	return out, nil
}

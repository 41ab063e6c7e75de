package ecosystem

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/netip"
	"strings"
	"time"

	"btpub/internal/metainfo"
	"btpub/internal/simclock"
	"btpub/internal/wire"
)

// Network mode: the swarm's peers live in synthetic address space, so a
// real crawler cannot dial them directly. The peer gateway impersonates
// every reachable peer behind one TCP endpoint: the client sends a one-line
// preamble naming the peer it wants ("PEER <ip>\n") and then speaks the
// standard BitTorrent wire protocol. The preamble is the only deviation
// from the real protocol and is documented in the README's "Over sockets"
// paragraph (The sharded campaign engine).

// ServeGateway accepts peer-gateway connections until the listener closes.
func (e *Ecosystem) ServeGateway(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go e.handleGatewayConn(conn)
	}
}

func (e *Ecosystem) handleGatewayConn(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetDeadline(simclock.Real{}.Now().Add(10 * time.Second))
	r := bufio.NewReader(conn)
	line, err := r.ReadString('\n')
	if err != nil {
		return
	}
	line = strings.TrimSpace(strings.TrimPrefix(line, "PEER "))
	addr, err := netip.ParseAddr(line)
	if err != nil {
		return
	}
	_ = wire.Serve(&bufferedConn{r: r, Conn: conn}, func(ih metainfo.Hash) (wire.PeerState, bool) {
		st, err := e.PeerState(ih, addr)
		if err != nil {
			return wire.PeerState{}, false
		}
		return st, true
	})
}

// bufferedConn reads through the preamble-consuming buffered reader while
// writing straight to the connection.
type bufferedConn struct {
	r *bufio.Reader
	net.Conn
}

func (b *bufferedConn) Read(p []byte) (int, error) { return b.r.Read(p) }

// GatewayProber implements Prober over the peer gateway.
type GatewayProber struct {
	// Addr is the gateway's TCP endpoint.
	Addr string
}

// probeTimeout bounds one gateway probe.
const probeTimeout = 5 * time.Second

// Probe implements Prober.
func (p *GatewayProber) Probe(ctx context.Context, addr netip.Addr, ih metainfo.Hash, numPieces int) (*wire.ProbeResult, error) {
	d := net.Dialer{Timeout: probeTimeout}
	conn, err := d.DialContext(ctx, "tcp", p.Addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "PEER %s\n", addr); err != nil {
		return nil, err
	}
	var myID [20]byte
	copy(myID[:], "-BTPUB0-netcrawler00")
	return wire.Probe(conn, ih, myID, numPieces, probeTimeout)
}

var _ Prober = (*GatewayProber)(nil)

// Package wire implements the subset of the BitTorrent peer wire protocol
// (BEP 3) the paper's crawler needs: the handshake and the bitfield
// message. When a freshly published swarm has a single seeder and fewer
// than 20 peers, the crawler connects to each reachable peer, performs the
// handshake, reads the peer's bitfield and identifies the seeder as the one
// with all pieces — that is how the publisher's IP address is obtained.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"btpub/internal/metainfo"
)

// protocolString is the BitTorrent handshake protocol identifier.
const protocolString = "BitTorrent protocol"

// Message IDs (BEP 3).
const (
	MsgChoke         byte = 0
	MsgUnchoke       byte = 1
	MsgInterested    byte = 2
	MsgNotInterested byte = 3
	MsgHave          byte = 4
	MsgBitfield      byte = 5
	MsgRequest       byte = 6
	MsgPiece         byte = 7
	MsgCancel        byte = 8
)

// maxMessageSize guards against hostile length prefixes.
const maxMessageSize = 1 << 22 // 4 MiB

// Handshake is the fixed-size protocol handshake.
type Handshake struct {
	InfoHash metainfo.Hash
	PeerID   [20]byte
}

// WriteHandshake sends h on w.
func WriteHandshake(w io.Writer, h *Handshake) error {
	buf := make([]byte, 0, 68)
	buf = append(buf, byte(len(protocolString)))
	buf = append(buf, protocolString...)
	buf = append(buf, make([]byte, 8)...) // reserved
	buf = append(buf, h.InfoHash[:]...)
	buf = append(buf, h.PeerID[:]...)
	_, err := w.Write(buf)
	return err
}

// ReadHandshake parses a handshake from r.
func ReadHandshake(r io.Reader) (*Handshake, error) {
	var pstrlen [1]byte
	if _, err := io.ReadFull(r, pstrlen[:]); err != nil {
		return nil, fmt.Errorf("wire: read pstrlen: %w", err)
	}
	if int(pstrlen[0]) != len(protocolString) {
		return nil, fmt.Errorf("wire: unexpected pstrlen %d", pstrlen[0])
	}
	rest := make([]byte, len(protocolString)+8+20+20)
	if _, err := io.ReadFull(r, rest); err != nil {
		return nil, fmt.Errorf("wire: read handshake: %w", err)
	}
	if string(rest[:len(protocolString)]) != protocolString {
		return nil, errors.New("wire: not a BitTorrent handshake")
	}
	h := &Handshake{}
	copy(h.InfoHash[:], rest[len(protocolString)+8:])
	copy(h.PeerID[:], rest[len(protocolString)+8+20:])
	return h, nil
}

// Message is one length-prefixed protocol message. A nil message with
// zero length is the keep-alive.
type Message struct {
	ID      byte
	Payload []byte
}

// WriteMessage sends m on w.
func WriteMessage(w io.Writer, m *Message) error {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(1+len(m.Payload)))
	hdr[4] = m.ID
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(m.Payload)
	return err
}

// ReadMessage parses the next message; keep-alives return (nil, nil).
func ReadMessage(r io.Reader) (*Message, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n == 0 {
		return nil, nil // keep-alive
	}
	if n > maxMessageSize {
		return nil, fmt.Errorf("wire: message length %d exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return &Message{ID: body[0], Payload: body[1:]}, nil
}

// Bitfield is a piece-availability bitmap, most significant bit first
// within each byte (BEP 3 layout).
type Bitfield []byte

// NewBitfield allocates a bitfield for n pieces.
func NewBitfield(n int) Bitfield {
	return make(Bitfield, (n+7)/8)
}

// Set marks piece i as available.
func (b Bitfield) Set(i int) {
	b[i/8] |= 0x80 >> uint(i%8)
}

// Has reports whether piece i is available.
func (b Bitfield) Has(i int) bool {
	if i/8 >= len(b) {
		return false
	}
	return b[i/8]&(0x80>>uint(i%8)) != 0
}

// Count returns the number of available pieces.
func (b Bitfield) Count() int {
	n := 0
	for _, by := range b {
		for by != 0 {
			n += int(by & 1)
			by >>= 1
		}
	}
	return n
}

// Complete reports whether all of numPieces pieces are present.
func (b Bitfield) Complete(numPieces int) bool {
	return b.Count() >= numPieces && numPieces > 0
}

// FromProgress builds the bitfield of a peer that has downloaded fraction f
// of numPieces pieces (the first ⌊f·n⌋ pieces, clamped to [0, n]).
func FromProgress(numPieces int, f float64) Bitfield {
	b := NewBitfield(numPieces)
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	k := int(f * float64(numPieces))
	if k > numPieces {
		k = numPieces
	}
	for i := 0; i < k; i++ {
		b.Set(i)
	}
	return b
}

// ProbeResult is what the crawler learns from one wire-level contact.
type ProbeResult struct {
	PeerID   [20]byte
	Bitfield Bitfield
	// Seeder is true when the bitfield covers all numPieces pieces.
	Seeder bool
}

// Deadliner is the subset of net.Conn needed to bound probe time.
type Deadliner interface {
	SetDeadline(t time.Time) error
}

// Probe performs the crawler side of a wire contact on an established
// connection: send handshake, read the peer's handshake, read its first
// real message (expected: bitfield) and classify the peer. timeout bounds
// the whole exchange when conn supports deadlines.
func Probe(conn io.ReadWriter, ih metainfo.Hash, myID [20]byte, numPieces int, timeout time.Duration) (*ProbeResult, error) {
	if d, ok := conn.(Deadliner); ok && timeout > 0 {
		if err := d.SetDeadline(time.Now().Add(timeout)); err != nil {
			return nil, err
		}
		defer d.SetDeadline(time.Time{}) //nolint:errcheck // best-effort reset
	}
	if err := WriteHandshake(conn, &Handshake{InfoHash: ih, PeerID: myID}); err != nil {
		return nil, fmt.Errorf("wire: send handshake: %w", err)
	}
	theirs, err := ReadHandshake(conn)
	if err != nil {
		return nil, err
	}
	if theirs.InfoHash != ih {
		return nil, fmt.Errorf("wire: peer is in a different swarm (%s)", theirs.InfoHash)
	}
	res := &ProbeResult{PeerID: theirs.PeerID}
	// Peers send their bitfield first; skip keep-alives and tolerate a
	// few unrelated messages before it.
	for i := 0; i < 4; i++ {
		msg, err := ReadMessage(conn)
		if err != nil {
			return nil, fmt.Errorf("wire: read message: %w", err)
		}
		if msg == nil {
			continue // keep-alive
		}
		if msg.ID == MsgBitfield {
			res.Bitfield = Bitfield(msg.Payload)
			res.Seeder = res.Bitfield.Complete(numPieces)
			return res, nil
		}
	}
	return nil, errors.New("wire: peer never sent a bitfield")
}

// PeerState is the answer a served peer gives about itself.
type PeerState struct {
	PeerID    [20]byte
	NumPieces int
	Progress  float64 // 1.0 for seeders
}

// Serve handles the peer side of a probe on conn: read the remote
// handshake, respond, and push our bitfield. resolve maps the requested
// info-hash to this peer's state; returning ok=false drops the connection
// (peer not in that swarm).
func Serve(conn io.ReadWriter, resolve func(ih metainfo.Hash) (PeerState, bool)) error {
	theirs, err := ReadHandshake(conn)
	if err != nil {
		return err
	}
	st, ok := resolve(theirs.InfoHash)
	if !ok {
		return fmt.Errorf("wire: not participating in swarm %s", theirs.InfoHash)
	}
	if err := WriteHandshake(conn, &Handshake{InfoHash: theirs.InfoHash, PeerID: st.PeerID}); err != nil {
		return err
	}
	bf := FromProgress(st.NumPieces, st.Progress)
	return WriteMessage(conn, &Message{ID: MsgBitfield, Payload: bf})
}

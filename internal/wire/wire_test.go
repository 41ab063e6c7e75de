package wire

import (
	"bytes"
	"io"
	"net"
	"testing"
	"testing/quick"
	"time"

	"btpub/internal/metainfo"
)

func testHash(b byte) metainfo.Hash {
	var h metainfo.Hash
	for i := range h {
		h[i] = b
	}
	return h
}

func TestHandshakeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Handshake{InfoHash: testHash(0xAA)}
	copy(in.PeerID[:], "-BTPUB0-abcdefghijkl")
	if err := WriteHandshake(&buf, in); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 68 {
		t.Fatalf("handshake length = %d, want 68", buf.Len())
	}
	out, err := ReadHandshake(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.InfoHash != in.InfoHash || out.PeerID != in.PeerID {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestReadHandshakeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{5, 'h', 'e', 'l', 'l', 'o'},
		append([]byte{19}, []byte("not the bittorrent pr"+string(make([]byte, 48)))...),
	}
	for i, in := range cases {
		if _, err := ReadHandshake(bytes.NewReader(in)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Message{ID: MsgBitfield, Payload: []byte{0xFF, 0x80}}
	if err := WriteMessage(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

// keepAlive is the zero-length keep-alive message: a bare length prefix.
var keepAlive = []byte{0, 0, 0, 0}

func TestKeepAlive(t *testing.T) {
	buf := bytes.NewBuffer(keepAlive)
	msg, err := ReadMessage(buf)
	if err != nil {
		t.Fatal(err)
	}
	if msg != nil {
		t.Fatalf("keep-alive decoded as %+v", msg)
	}
}

func TestReadMessageRejectsHugeLength(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadMessage(&buf); err == nil {
		t.Fatal("huge length accepted")
	}
}

func TestBitfieldSetHasCount(t *testing.T) {
	b := NewBitfield(20)
	if len(b) != 3 {
		t.Fatalf("bitfield bytes = %d, want 3", len(b))
	}
	for _, i := range []int{0, 7, 8, 19} {
		b.Set(i)
	}
	for _, i := range []int{0, 7, 8, 19} {
		if !b.Has(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	for _, i := range []int{1, 6, 9, 18, 25} {
		if b.Has(i) {
			t.Fatalf("bit %d unexpectedly set", i)
		}
	}
	if b.Count() != 4 {
		t.Fatalf("count = %d, want 4", b.Count())
	}
}

func TestBitfieldComplete(t *testing.T) {
	b := FromProgress(13, 1.0)
	if !b.Complete(13) {
		t.Fatal("full bitfield not complete")
	}
	b = FromProgress(13, 0.99)
	if b.Complete(13) {
		t.Fatal("12/13 bitfield complete")
	}
	if NewBitfield(0).Complete(0) {
		t.Fatal("zero pieces reported complete")
	}
}

// Property: FromProgress sets exactly ⌊f·n⌋ bits for f in [0,1].
func TestFromProgressProperty(t *testing.T) {
	f := func(n uint8, p uint8) bool {
		pieces := int(n%200) + 1
		frac := float64(p%101) / 100
		b := FromProgress(pieces, frac)
		want := int(frac * float64(pieces))
		return b.Count() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromProgressClamps(t *testing.T) {
	if got := FromProgress(10, -0.5).Count(); got != 0 {
		t.Fatalf("negative progress set %d bits", got)
	}
	if got := FromProgress(10, 2.0).Count(); got != 10 {
		t.Fatalf("overflow progress set %d bits", got)
	}
}

// probeOverPipe runs Serve on one end and Probe on the other.
func probeOverPipe(t *testing.T, state PeerState, ih metainfo.Hash, serveOK bool) (*ProbeResult, error) {
	t.Helper()
	client, server := net.Pipe()
	defer client.Close()
	done := make(chan error, 1)
	go func() {
		defer server.Close()
		done <- Serve(server, func(got metainfo.Hash) (PeerState, bool) {
			return state, serveOK && got == ih
		})
	}()
	var myID [20]byte
	copy(myID[:], "-BTPUB0-crawler00000")
	res, err := Probe(client, ih, myID, state.NumPieces, 2*time.Second)
	<-done
	return res, err
}

func TestProbeIdentifiesSeeder(t *testing.T) {
	ih := testHash(0x42)
	var pid [20]byte
	copy(pid[:], "-PEER00-seeder000000")
	res, err := probeOverPipe(t, PeerState{PeerID: pid, NumPieces: 40, Progress: 1}, ih, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Seeder {
		t.Fatal("seeder not recognised")
	}
	if res.PeerID != pid {
		t.Fatal("peer id mismatch")
	}
	if res.Bitfield.Count() != 40 {
		t.Fatalf("bitfield count = %d", res.Bitfield.Count())
	}
}

func TestProbeIdentifiesLeecher(t *testing.T) {
	ih := testHash(0x43)
	res, err := probeOverPipe(t, PeerState{NumPieces: 40, Progress: 0.5}, ih, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seeder {
		t.Fatal("half-done leecher classified as seeder")
	}
	if res.Bitfield.Count() != 20 {
		t.Fatalf("bitfield count = %d, want 20", res.Bitfield.Count())
	}
}

func TestProbeWrongSwarmFails(t *testing.T) {
	ih := testHash(0x44)
	if _, err := probeOverPipe(t, PeerState{NumPieces: 10, Progress: 1}, ih, false); err == nil {
		t.Fatal("probe of non-member succeeded")
	}
}

func TestProbeOverRealTCP(t *testing.T) {
	ih := testHash(0x55)
	var pid [20]byte
	copy(pid[:], "-PEER00-tcp-serving0")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				_ = Serve(c, func(metainfo.Hash) (PeerState, bool) {
					return PeerState{PeerID: pid, NumPieces: 128, Progress: 1}, true
				})
			}(conn)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var myID [20]byte
	res, err := Probe(conn, ih, myID, 128, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Seeder {
		t.Fatal("TCP probe did not identify the seeder")
	}
}

func TestProbeTimeoutOnSilentPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Accept and say nothing.
		time.Sleep(500 * time.Millisecond)
		conn.Close()
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var myID [20]byte
	start := time.Now()
	_, err = Probe(conn, testHash(1), myID, 10, 150*time.Millisecond)
	if err == nil {
		t.Fatal("probe of silent peer succeeded")
	}
	if time.Since(start) > time.Second {
		t.Fatal("probe did not respect timeout")
	}
}

func TestProbeSkipsKeepAlives(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	ih := testHash(9)
	go func() {
		defer server.Close()
		theirs, err := ReadHandshake(server)
		if err != nil {
			return
		}
		_ = WriteHandshake(server, &Handshake{InfoHash: theirs.InfoHash})
		_, _ = server.Write(keepAlive)
		_, _ = server.Write(keepAlive)
		bf := FromProgress(8, 1)
		_ = WriteMessage(server, &Message{ID: MsgBitfield, Payload: bf})
	}()
	var myID [20]byte
	res, err := Probe(client, ih, myID, 8, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Seeder {
		t.Fatal("seeder behind keep-alives not recognised")
	}
}

func TestProbeGivesUpWithoutBitfield(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	go func() {
		defer server.Close()
		theirs, err := ReadHandshake(server)
		if err != nil {
			return
		}
		_ = WriteHandshake(server, &Handshake{InfoHash: theirs.InfoHash})
		for i := 0; i < 6; i++ {
			_ = WriteMessage(server, &Message{ID: MsgChoke})
		}
	}()
	var myID [20]byte
	if _, err := Probe(client, testHash(2), myID, 8, 2*time.Second); err == nil {
		t.Fatal("probe without bitfield succeeded")
	}
}

func TestServeRejectsBrokenHandshake(t *testing.T) {
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() {
		err := Serve(server, func(metainfo.Hash) (PeerState, bool) {
			return PeerState{}, true
		})
		server.Close() // unblock the client's pending write
		done <- err
	}()
	_, _ = client.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	client.Close()
	if err := <-done; err == nil {
		t.Fatal("Serve accepted an HTTP request as a handshake")
	}
}

var _ io.ReadWriter = (net.Conn)(nil) // Probe works over any net.Conn

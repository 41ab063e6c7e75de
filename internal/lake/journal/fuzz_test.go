package journal

import (
	"bytes"
	"testing"
)

// FuzzJournalDecode: Decode must never panic on arbitrary bytes, and any
// image it accepts must re-encode byte-identically — the canonical-form
// property Lake.Verify's replay comparison depends on.
func FuzzJournalDecode(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte(magic))
	f.Add([]byte(magic)[:5])
	f.Add(Encode([]Record{{Version: 1, Payload: []byte(`{"delta":1}`)}}))
	f.Add(Encode(sampleRecs()))
	flipped := Encode(sampleRecs())
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	torn := Encode([]Record{{Version: 1}, {Version: 2, Payload: []byte("x")}})
	f.Add(torn[:len(torn)-3])
	f.Add(append([]byte(magicV1), Encode(sampleRecs())[len(magic):]...))
	f.Fuzz(func(t *testing.T, buf []byte) {
		recs, err := Decode(buf)
		if err != nil {
			return
		}
		if !bytes.Equal(Encode(recs), buf) {
			t.Fatalf("accepted a non-canonical encoding (%d bytes)", len(buf))
		}
	})
}

package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"btpub/internal/vfs/faultfs"
)

// sampleRecs is a small, rule-abiding history: versions 1..5, one
// record each, one of them with an empty payload.
func sampleRecs() []Record {
	return []Record{
		{Version: 1, Payload: []byte(`{"delta":1}`)},
		{Version: 2, Payload: []byte(`{"delta":2}`)},
		{Version: 3},
		{Version: 4, Payload: []byte(`{"delta":4}`)},
		{Version: 5, Payload: []byte(`{"delta":5}`)},
	}
}

func mustAppendAll(t *testing.T, j *Journal, recs []Record) {
	t.Helper()
	for i, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func recsEqual(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Version != b[i].Version || !bytes.Equal(a[i].Payload, b[i].Payload) {
			return false
		}
	}
	return true
}

func TestAppendReopen(t *testing.T) {
	fs := faultfs.New(1)
	j, err := Open(fs, Name)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 0 || j.Size() != 0 {
		t.Fatalf("fresh journal not empty: len %d size %d", j.Len(), j.Size())
	}
	want := sampleRecs()
	mustAppendAll(t, j, want)
	if j.Len() != len(want) {
		t.Fatalf("len %d after %d appends", j.Len(), len(want))
	}

	j2, err := Open(fs, Name)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if !recsEqual(j2.Records(), want) {
		t.Fatalf("reopen replayed %+v, want %+v", j2.Records(), want)
	}
	if j2.Size() != j.Size() {
		t.Fatalf("reopen size %d, append-time size %d", j2.Size(), j.Size())
	}
	// The on-disk image is exactly the canonical encoding.
	buf, err := fs.ReadFile(Name)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, Encode(want)) {
		t.Fatal("on-disk image differs from Encode")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := sampleRecs()
	buf := Encode(want)
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !recsEqual(got, want) {
		t.Fatalf("round trip: %+v != %+v", got, want)
	}
	if !bytes.Equal(Encode(got), buf) {
		t.Fatal("re-encode is not byte-identical")
	}
	if got, err := Decode([]byte(magic)); err != nil || len(got) != 0 {
		t.Fatalf("empty image: %v, %d records", err, len(got))
	}
}

func TestTornTailRepaired(t *testing.T) {
	want := sampleRecs()
	img := Encode(want)
	// A crash mid-append keeps a prefix of the new frame's bytes.
	next := appendFrame(nil, chainAfter(want), Record{Version: 6, Payload: []byte(`{"delta":6}`)})
	for cut := 1; cut < len(next); cut += 7 {
		fs := faultfs.New(1)
		writeRaw(t, fs, Name, append(append([]byte(nil), img...), next[:cut]...))
		j, err := Open(fs, Name)
		if err != nil {
			t.Fatalf("cut %d: torn tail refused: %v", cut, err)
		}
		if !recsEqual(j.Records(), want) {
			t.Fatalf("cut %d: torn tail lost committed records", cut)
		}
		// The repair must be physical: a strict re-read sees no tail.
		buf, err := fs.ReadFile(Name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(buf); err != nil {
			t.Fatalf("cut %d: repaired file still corrupt: %v", cut, err)
		}
	}
}

func TestTornHeaderRemovesFile(t *testing.T) {
	fs := faultfs.New(1)
	writeRaw(t, fs, Name, []byte(magic)[:5])
	j, err := Open(fs, Name)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 0 {
		t.Fatalf("torn header produced %d records", j.Len())
	}
	if _, err := fs.ReadFile(Name); !os.IsNotExist(err) {
		t.Fatalf("torn-header file not removed: %v", err)
	}
}

func TestHardCorruptionRefused(t *testing.T) {
	base := sampleRecs()
	img := Encode(base)
	cases := map[string]func() []byte{
		"bad magic": func() []byte {
			b := append([]byte(nil), img...)
			b[0] ^= 0xff
			return b
		},
		"payload bit flip": func() []byte {
			b := append([]byte(nil), img...)
			b[len(magic)+20] ^= 0x01
			return b
		},
	}
	for name, mk := range cases {
		if _, _, err := parse(mk()); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		fs := faultfs.New(1)
		writeRaw(t, fs, Name, mk())
		if _, err := Open(fs, Name); err == nil {
			t.Fatalf("%s: Open accepted", name)
		}
	}
	// Version and chain rules, via hand-framed images.
	var chain [32]byte
	regress := []byte(magic)
	r1 := Record{Version: 1, Payload: []byte("a")}
	regress = appendFrame(regress, chain, r1)
	chain = chainNext(chain, r1)
	regress = appendFrame(regress, chain, Record{Version: 1, Payload: []byte("b")})
	if _, err := Decode(regress); err == nil {
		t.Fatal("version regression accepted")
	}
	var zero [32]byte
	broken := []byte(magic)
	broken = appendFrame(broken, zero, r1)
	broken = appendFrame(broken, zero, Record{Version: 2, Payload: []byte("b")}) // parent should be chainNext, not zero
	if _, err := Decode(broken); err == nil {
		t.Fatal("broken parent chain accepted")
	}
	var ce *CorruptError
	_, err := Decode(broken)
	if !errors.As(err, &ce) {
		t.Fatalf("error %T, want *CorruptError", err)
	}
}

// TestFormat1Refused: a journal in format 1, whose frames carried a
// checkpoint flag byte, is refused with an error that names the format —
// not reported as corruption, not repaired, not touched.
func TestFormat1Refused(t *testing.T) {
	img := append([]byte(magicV1), 0x2a, 0, 0, 0, 1)
	if _, err := Decode(img); err == nil || !strings.Contains(err.Error(), "format 1") {
		t.Fatalf("Decode: %v", err)
	}
	fs := faultfs.New(1)
	writeRaw(t, fs, Name, img)
	if _, err := Open(fs, Name); err == nil || !strings.Contains(err.Error(), "format 1") {
		t.Fatalf("Open: %v", err)
	}
	if buf, err := fs.ReadFile(Name); err != nil || !bytes.Equal(buf, img) {
		t.Fatalf("refused journal was touched: %v", err)
	}
}

func TestOrderRulesOnAppend(t *testing.T) {
	cases := []struct {
		name string
		recs []Record
		ok   bool
	}{
		{"opens at 1", []Record{{Version: 1}}, true},
		{"opens at 0", []Record{{Version: 0}}, false},
		{"opens mid-history", []Record{{Version: 5}}, false},
		{"skips a version", []Record{{Version: 1}, {Version: 3}}, false},
		{"repeats a version", []Record{{Version: 1}, {Version: 1}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j, err := Open(faultfs.New(1), Name)
			if err != nil {
				t.Fatal(err)
			}
			var lastErr error
			for _, rec := range tc.recs {
				if lastErr = j.Append(rec); lastErr != nil {
					break
				}
			}
			if (lastErr == nil) != tc.ok {
				t.Fatalf("append error = %v, want ok=%v", lastErr, tc.ok)
			}
		})
	}
}

// TestFailedAppendNotBuried: an append that errors mid-write leaves
// unsynced garbage after the valid image; the next append must rewrite
// it away rather than commit a frame on top of it.
func TestFailedAppendNotBuried(t *testing.T) {
	fs := faultfs.New(1)
	j, err := Open(fs, Name)
	if err != nil {
		t.Fatal(err)
	}
	mustAppendAll(t, j, sampleRecs())

	// Fail the Sync of the next append (ops: Size, Append, Write, Sync):
	// the frame's bytes reach the file but the append reports failure, so
	// the on-disk length now disagrees with the journal's append offset.
	fs.FailAt(fs.Ops()+4, faultfs.ErrNoSpace)
	bad := Record{Version: 6, Payload: []byte(`{"delta":6}`)}
	if err := j.Append(bad); err == nil {
		t.Fatal("injected sync error did not surface")
	}
	if err := j.Append(bad); err != nil {
		t.Fatalf("retry after failed append: %v", err)
	}
	buf, err := fs.ReadFile(Name)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := Decode(buf)
	if err != nil {
		t.Fatalf("image corrupt after retried append: %v", err)
	}
	if len(recs) != 6 || recs[5].Version != 6 {
		t.Fatalf("retried append produced %d records (head %d)", len(recs), recs[len(recs)-1].Version)
	}
}

// chainAfter folds the parent chain over recs.
func chainAfter(recs []Record) [32]byte {
	var chain [32]byte
	for _, rec := range recs {
		chain = chainNext(chain, rec)
	}
	return chain
}

func writeRaw(t *testing.T, fs *faultfs.FS, name string, data []byte) {
	t.Helper()
	if err := writeFileSync(fs, name, data); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptErrorMessage(t *testing.T) {
	err := &CorruptError{Offset: 12, Reason: "x"}
	if got := err.Error(); got != fmt.Sprintf("journal: corrupt at byte %d: %s", 12, "x") {
		t.Fatalf("message %q", got)
	}
}

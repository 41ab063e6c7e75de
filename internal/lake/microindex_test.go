// White-box microindex tests: codec round-trips, corrupt-file
// rejection, and the compatibility guarantee that segments without
// postings (entries with no index reference, or lost index files) stay
// fully readable on zone maps alone until compaction regenerates them.
package lake

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"btpub/internal/dataset"
)

func sampleStore(rows int) *dataset.ObsStore {
	t0 := time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)
	var st dataset.ObsStore
	for i := 0; i < rows; i++ {
		st.Append(dataset.Observation{
			TorrentID: i % 7,
			IP:        fmt.Sprintf("10.%d.%d.%d", i%3, (i/3)%200, i%251),
			At:        t0.Add(time.Duration(i) * time.Second),
			Seeder:    i%5 == 0,
		})
	}
	return &st
}

func TestMicroindexRoundTrip(t *testing.T) {
	st := sampleStore(500)
	x := buildMicroindex(st)
	if len(x.ips) == 0 || len(x.tids) != 7 {
		t.Fatalf("built index has %d IPs / %d TIDs", len(x.ips), len(x.tids))
	}
	buf := encodeMicroindex(x)
	got, err := decodeMicroindex("test.ipx", buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.equal(x) {
		t.Fatal("decode(encode(x)) != x")
	}
	// Canonical encoding: a decoded index re-encodes byte-identically.
	if !bytes.Equal(encodeMicroindex(got), buf) {
		t.Fatal("re-encoding a decoded index changed its bytes")
	}

	// Lookups answer exactly, not probabilistically.
	for i := 0; i < st.Len(); i += 37 {
		if !x.hasIP(st.IPString(i)) {
			t.Fatalf("hasIP(%q) = false for an observed address", st.IPString(i))
		}
	}
	if x.hasIP("203.0.113.1") {
		t.Fatal("hasIP claims an address the segment never saw")
	}
	// hasAnyIP / hasAnyTID take sorted probe lists.
	if !x.hasAnyIP([]string{st.IPString(0), "203.0.113.1"}) {
		t.Fatal("hasAnyIP missed an observed address")
	}
	if x.hasAnyIP([]string{"203.0.113.1", "203.0.113.2"}) {
		t.Fatal("hasAnyIP claims unobserved addresses")
	}
	if !x.hasAnyTID([]int32{3, 100}) || x.hasAnyTID([]int32{100, 200}) {
		t.Fatal("hasAnyTID wrong")
	}

	// An empty index is valid too.
	empty := &microindex{}
	got, err = decodeMicroindex("empty.ipx", encodeMicroindex(empty))
	if err != nil || len(got.ips) != 0 || len(got.tids) != 0 {
		t.Fatalf("empty round-trip: %v, %+v", err, got)
	}
}

func TestMicroindexDecodeRejectsCorruption(t *testing.T) {
	valid := encodeMicroindex(buildMicroindex(sampleStore(100)))
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"short", func(b []byte) []byte { return b[:idxHeaderLen] }},
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"bit-flip", func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-9] }},
		{"trailing-garbage", func(b []byte) []byte { return append(b, 0xde, 0xad) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := tc.mutate(append([]byte(nil), valid...))
			if _, err := decodeMicroindex("x.ipx", buf); err == nil {
				t.Fatal("decode accepted corrupt bytes")
			} else if _, ok := err.(*CorruptIndexError); !ok {
				t.Fatalf("error = %T, want *CorruptIndexError", err)
			}
		})
	}
}

// FuzzMicroindexRoundTrip: decode must never panic on arbitrary bytes,
// and anything it accepts must re-encode to the identical bytes — the
// canonical-form property Verify's equality check depends on.
func FuzzMicroindexRoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte(idxMagic))
	f.Add(encodeMicroindex(&microindex{}))
	f.Add(encodeMicroindex(buildMicroindex(sampleStore(50))))
	f.Add(encodeMicroindex(&microindex{ips: []string{"1.2.3.4", "5.6.7.8"}, tids: []int32{0, 9}}))
	f.Fuzz(func(t *testing.T, buf []byte) {
		x, err := decodeMicroindex("fuzz.ipx", buf)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeMicroindex(x), buf) {
			t.Fatalf("accepted a non-canonical encoding (%d bytes)", len(buf))
		}
	})
}

// TestPreMicroindexLakeCompat: a lake whose segment entries carry no
// microindex reference (a journal migrated from a build that predates
// microindexes, or — as built here — one that lost every idx file) must
// open, scan, and Verify cleanly, with point lookups opening every
// zone-admitted segment; one compaction regenerates the postings and
// restores exact pruning.
func TestPreMicroindexLakeCompat(t *testing.T) {
	t0 := time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)
	dir := filepath.Join(t.TempDir(), "lake")
	lk, err := Open(dir, Options{FlushRows: 512})
	if err != nil {
		t.Fatal(err)
	}
	const total = 8_000
	const target = "198.51.100.42"
	for i := 0; i < total; i++ {
		ip := fmt.Sprintf("10.%d.%d.%d", (i>>16)&255, (i>>8)&255, i&255)
		if i == 3_000 {
			ip = target
		}
		if err := lk.Append(dataset.Observation{
			TorrentID: i % 10, IP: ip, At: t0.Add(time.Duration(i) * time.Second),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lk.Close(); err != nil {
		t.Fatal(err)
	}

	man := liveManifest(lk)
	if len(man.Segments) < 10 {
		t.Fatalf("segments = %d, want many", len(man.Segments))
	}
	for _, s := range man.Segments {
		if s.Index == "" {
			t.Fatalf("segment %s sealed without an index", s.File)
		}
		if err := os.Remove(filepath.Join(dir, s.Index)); err != nil {
			t.Fatal(err)
		}
	}

	lk, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("index-less lake failed to open: %v", err)
	}
	defer lk.Close()
	for _, s := range liveManifest(lk).Segments {
		if s.Index != "" {
			t.Fatalf("dangling index reference survived: %+v", s)
		}
	}
	ctx := context.Background()
	if errs := lk.Verify(ctx); len(errs) != 0 {
		t.Fatalf("index-less lake fails Verify: %v", errs)
	}

	// Point lookups still work — there are just no postings to prune on,
	// and the address is inside every zone map, so every segment is opened.
	pl, err := lk.PlanScan(Predicate{IPs: []string{target}})
	if err != nil {
		t.Fatal(err)
	}
	if pl.PrunedPostings != 0 {
		t.Fatalf("plan pruned %d segments via postings that do not exist", pl.PrunedPostings)
	}
	if len(pl.Opened) != pl.Segments {
		t.Fatalf("index-less plan opened %d of %d segments, want all", len(pl.Opened), pl.Segments)
	}
	rows := 0
	if err := lk.Scan(ctx, Predicate{IPs: []string{target}}, func(b *Batch) error {
		rows += b.Len()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rows != 1 {
		t.Fatalf("point lookup matched %d rows, want 1", rows)
	}

	// Compaction regenerates postings for the merged output.
	if err := lk.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, s := range liveManifest(lk).Segments {
		if s.Index == "" {
			t.Fatalf("compacted segment %s has no index", s.File)
		}
		if _, err := os.Stat(filepath.Join(dir, s.Index)); err != nil {
			t.Fatalf("compacted index missing: %v", err)
		}
	}
	if errs := lk.Verify(ctx); len(errs) != 0 {
		t.Fatalf("compacted lake fails Verify: %v", errs)
	}
	pl, err = lk.PlanScan(Predicate{IPs: []string{"203.0.113.254"}})
	if err != nil {
		t.Fatal(err)
	}
	if pl.PrunedPostings == 0 || len(pl.Opened) != 0 {
		t.Fatalf("regenerated postings did not prune an absent address: %+v", pl)
	}
}

// liveManifest snapshots a handle's committed state.
func liveManifest(lk *Lake) *manifest {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	return lk.man.clone()
}

// TestMissingIndexFileDegrades: losing an idx file the manifest still
// references must not block Open (index loss is not data loss) — the
// reference is dropped, the degraded manifest committed, and scans prune
// that segment on its zone maps alone.
func TestMissingIndexFileDegrades(t *testing.T) {
	t0 := time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)
	dir := filepath.Join(t.TempDir(), "lake")
	lk, err := Open(dir, Options{FlushRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	const total = 2_000
	for i := 0; i < total; i++ {
		if err := lk.Append(dataset.Observation{
			TorrentID: i % 5, IP: fmt.Sprintf("10.0.%d.%d", (i>>8)&255, i&255),
			At: t0.Add(time.Duration(i) * time.Second),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lk.Close(); err != nil {
		t.Fatal(err)
	}
	victim := liveManifest(lk).Segments[1]
	if err := os.Remove(filepath.Join(dir, victim.Index)); err != nil {
		t.Fatal(err)
	}

	lk, err = Open(dir, Options{}) // no Salvage needed
	if err != nil {
		t.Fatalf("missing index file blocked Open: %v", err)
	}
	defer lk.Close()
	for _, s := range liveManifest(lk).Segments {
		if s.File == victim.File {
			if s.Index != "" {
				t.Fatalf("dangling index reference survived: %+v", s)
			}
		} else if s.Index == "" {
			t.Fatalf("unrelated segment %s lost its index", s.File)
		}
	}
	if errs := lk.Verify(context.Background()); len(errs) != 0 {
		t.Fatalf("degraded lake fails Verify: %v", errs)
	}
	if rows := countRows(t, lk.Scan, Predicate{}); rows != total {
		t.Fatalf("scan saw %d rows, want %d", rows, total)
	}
}

// Kill-point torture: the lake's crash-consistency claim, enumerated
// instead of anecdotal. One deterministic reopen→flush→query→compact→
// reindex workload runs against faultfs to record its full filesystem
// operation sequence; then, for each operation index k, the workload is
// replayed against a fresh identically-seeded faultfs with a crash
// injected at k. The volume starts as a closed lake already holding
// committed rows, so the first Open replays a journal under fire. After
// every crash the surviving volume must reopen without
// Salvage, pass Verify, and hold exactly a committed prefix of the
// appended observations — never a torn or reordered middle state, and
// never fewer rows than a version the journal acknowledged.
//
// The full enumeration (every k, clean and torn-write crashes) runs when
// BTPUB_FAULT_KILLPOINTS=all (nightly, `make test-faults`); the default
// run samples kill points evenly so the test stays cheap under -race in
// CI. Set BTPUB_FAULT_KILLPOINTS=<n> for a custom budget.
package lake_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"testing"
	"time"

	"btpub/internal/dataset"
	"btpub/internal/lake"
	"btpub/internal/vfs"
	"btpub/internal/vfs/faultfs"
)

const (
	faultSeed     = 0xb7_90b // any fixed seed; torn-tail lengths derive from it
	faultTorrents = 6
	faultSeedRows = 48 // rows committed to the volume before faults are armed
	faultWave1    = 300
	faultWave2    = 150
	faultFlushAt  = 96
)

// faultObs is the deterministic observation for append index i.
// Timestamps strictly increase with i, so canonical (At-major) order
// equals append order and "committed prefix" is directly checkable.
func faultObs(i int) dataset.Observation {
	t0 := time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)
	return dataset.Observation{
		TorrentID: i % faultTorrents,
		IP:        fmt.Sprintf("10.%d.%d.%d", i%4, (i/7)%50, i%13),
		At:        t0.Add(time.Duration(i) * time.Second),
		Seeder:    i%3 == 0,
	}
}

// seededVolume returns a fresh fault FS holding a closed lake with the
// first faultSeedRows appends committed, and the number of fs operations
// that took — fault indices count from there.
func seededVolume(t *testing.T) (*faultfs.FS, int) {
	t.Helper()
	fsys := faultfs.New(faultSeed)
	lk, err := lake.Open("sim", lake.Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < faultSeedRows; i++ {
		if err := lk.Append(faultObs(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := lk.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := lk.Close(); err != nil {
		t.Fatal(err)
	}
	return fsys, fsys.Ops()
}

// faultWorkload drives one full lake lifecycle over a seeded volume:
// flush (two auto + one explicit), point and window queries, synchronous
// compaction, a second append wave (reindex), Verify, Close. It aborts
// on the first error, like a crashed process would. record, when
// non-nil, is called after every step that can commit a manifest; it
// must not perform fs operations (op numbering is replayed exactly).
func faultWorkload(fsys vfs.FS, record func(*lake.Lake)) error {
	lk, err := lake.Open("sim", lake.Options{
		FS:        fsys,
		FlushRows: faultFlushAt,
		// No Auto compaction: background work would race the op counter.
		Compact: lake.CompactOptions{MinSegments: 1 << 30},
	})
	if err != nil {
		return err
	}
	note := func() {
		if record != nil {
			record(lk)
		}
	}
	note() // the seed rows are a committed state

	recs := make([]*dataset.TorrentRecord, faultTorrents)
	for i := range recs {
		recs[i] = &dataset.TorrentRecord{
			TorrentID: i,
			Title:     fmt.Sprintf("torrent-%02d", i),
			Username:  fmt.Sprintf("pub%d", i%3),
		}
	}
	if err := lk.AddTorrents(recs); err != nil {
		return err
	}
	for i := faultSeedRows; i < faultWave1; i++ {
		if err := lk.Append(faultObs(i)); err != nil {
			return err
		}
		note()
	}
	if err := lk.Flush(); err != nil {
		return err
	}
	note()

	// Query stage: a point lookup (reads segment postings) and a
	// time-window scan, each reading its segments in committed order.
	ctx := context.Background()
	point := lake.Predicate{IPs: []string{faultObs(5).IP}}
	if err := lk.Scan(ctx, point, func(*lake.Batch) error { return nil }); err != nil {
		return err
	}
	t0 := faultObs(0).At
	window := lake.Predicate{MinTime: t0.Add(30 * time.Second), MaxTime: t0.Add(200 * time.Second), TorrentIDs: []int{1, 3}}
	if err := lk.Scan(ctx, window, func(*lake.Batch) error { return nil }); err != nil {
		return err
	}

	if err := lk.Compact(); err != nil {
		return err
	}
	note()

	// Reindex: a second wave of appends builds fresh segments, each its
	// own index, beside the compacted one.
	for i := faultWave1; i < faultWave1+faultWave2; i++ {
		if err := lk.Append(faultObs(i)); err != nil {
			return err
		}
		note()
	}
	if err := lk.Flush(); err != nil {
		return err
	}
	note()

	if errs := lk.Verify(ctx); len(errs) > 0 {
		return errs[0]
	}
	if err := lk.Close(); err != nil {
		return err
	}
	return nil
}

// killPoints picks which op indices to crash at, honoring
// BTPUB_FAULT_KILLPOINTS ("all", or an integer budget; default 64).
func killPoints(t *testing.T, total int) []int {
	t.Helper()
	budget := 64
	switch v := os.Getenv("BTPUB_FAULT_KILLPOINTS"); {
	case v == "all":
		budget = total
	case v != "":
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("BTPUB_FAULT_KILLPOINTS=%q: want \"all\" or a positive integer", v)
		}
		budget = n
	}
	if budget >= total {
		ks := make([]int, total)
		for i := range ks {
			ks[i] = i + 1
		}
		return ks
	}
	// Evenly spaced sample of 1..total, always including both ends.
	ks := make([]int, 0, budget)
	for i := 0; i < budget; i++ {
		k := 1 + i*(total-1)/(budget-1)
		if len(ks) == 0 || k != ks[len(ks)-1] {
			ks = append(ks, k)
		}
	}
	return ks
}

// checkRecovered asserts the surviving volume is a consistent committed
// prefix: Open succeeds without Salvage, Verify is clean, the count is
// one the workload actually committed, and the rows are exactly the
// first M appends.
func checkRecovered(t *testing.T, desc string, fsys vfs.FS, committed map[int64]bool, versions map[uint64]bool) {
	t.Helper()
	lk, err := lake.Open("sim", lake.Options{FS: fsys})
	if err != nil {
		t.Fatalf("%s: Open after crash (no salvage): %v", desc, err)
	}
	defer lk.Close()
	if errs := lk.Verify(context.Background()); len(errs) > 0 {
		t.Fatalf("%s: Verify after crash: %v", desc, errs)
	}
	st := lk.Stats()
	if !committed[st.Observations] {
		t.Fatalf("%s: recovered %d observations, not a committed count (%v)", desc, st.Observations, sortedKeys(committed))
	}
	if !versions[lk.Version()] {
		t.Fatalf("%s: recovered journal version %d, which the workload never committed", desc, lk.Version())
	}
	type row struct {
		atNs   int64
		tid    int
		ip     string
		seeder bool
	}
	var rows []row
	err = lk.Scan(context.Background(), lake.Predicate{}, func(b *lake.Batch) error {
		for i := 0; i < b.Len(); i++ {
			rows = append(rows, row{b.UnixNano(i), b.TorrentID(i), b.IP(i), b.Seeder(i)})
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: scan after crash: %v", desc, err)
	}
	if int64(len(rows)) != st.Observations {
		t.Fatalf("%s: scan returned %d rows, Stats says %d", desc, len(rows), st.Observations)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].atNs < rows[j].atNs })
	for i, r := range rows {
		want := faultObs(i)
		if r.atNs != want.At.UnixNano() || r.tid != want.TorrentID || r.ip != want.IP || r.seeder != want.Seeder {
			t.Fatalf("%s: row %d after crash = %+v, want append #%d %+v (not a prefix)", desc, i, r, i, want)
		}
	}
	// Torrent records commit atomically with the first flush: all or none.
	recs, _, err := lk.TorrentRecords(0)
	if err != nil {
		t.Fatalf("%s: TorrentRecords after crash: %v", desc, err)
	}
	if n := len(recs); n != 0 && n != faultTorrents {
		t.Fatalf("%s: recovered %d torrent records, want 0 or %d", desc, n, faultTorrents)
	}
}

func sortedKeys(m map[int64]bool) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// recordRun replays the workload fault-free, returning the op total and
// the set of observation counts that were ever committed. Run twice to
// prove the op sequence is replayable.
func recordRun(t *testing.T) (int, map[int64]bool, map[uint64]bool) {
	t.Helper()
	run := func() (int, map[int64]bool, map[uint64]bool) {
		fsys, base := seededVolume(t)
		committed := map[int64]bool{}
		versions := map[uint64]bool{}
		if err := faultWorkload(fsys, func(lk *lake.Lake) {
			committed[lk.Stats().Observations] = true
			versions[lk.Version()] = true
		}); err != nil {
			t.Fatalf("fault-free workload failed: %v", err)
		}
		return fsys.Ops() - base, committed, versions
	}
	ops1, committed, versions := run()
	ops2, _, _ := run()
	if ops1 != ops2 {
		t.Fatalf("workload is not deterministic: %d ops vs %d ops", ops1, ops2)
	}
	return ops1, committed, versions
}

func TestKillPointTorture(t *testing.T) {
	total, committed, versions := recordRun(t)
	points := killPoints(t, total)
	t.Logf("workload = %d fs ops, crashing at %d of them", total, len(points))
	for _, torn := range []bool{false, true} {
		name := "clean"
		if torn {
			name = "torn"
		}
		t.Run(name, func(t *testing.T) {
			for _, k := range points {
				fsys, base := seededVolume(t)
				fsys.CrashAt(base+k, torn)
				err := faultWorkload(fsys, nil)
				if !fsys.Crashed() {
					t.Fatalf("kill point %d: workload finished without crashing (err=%v)", k, err)
				}
				desc := fmt.Sprintf("kill point %d/%d (torn=%v)", k, total, torn)
				checkRecovered(t, desc, fsys.Recover(), committed, versions)
			}
		})
	}
}

// TestInjectedIOErrors fires EIO / ENOSPC (no crash) at sampled ops: the
// workload must either ride through (ignorable op) or abort cleanly, and
// in both cases the volume must stay consistent for the next open.
func TestInjectedIOErrors(t *testing.T) {
	total, committed, versions := recordRun(t)
	points := killPoints(t, total)
	for _, inj := range []error{faultfs.ErrIO, faultfs.ErrNoSpace} {
		t.Run(fmt.Sprintf("%v", errors.Unwrap(inj)), func(t *testing.T) {
			for _, k := range points {
				fsys, base := seededVolume(t)
				fsys.FailAt(base+k, inj)
				_ = faultWorkload(fsys, nil) // abort or survive; both legal
				checkRecovered(t, fmt.Sprintf("injected %v at op %d", inj, k), fsys, committed, versions)
			}
		})
	}
}

package crawler

import (
	"context"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"btpub/internal/metainfo"
	"btpub/internal/portal"
	"btpub/internal/sessions"
	"btpub/internal/simclock"
	"btpub/internal/swarm"
	"btpub/internal/tracker"
)

// TestConfigDefaults: the dedup window must stay below the session
// gap, or thinning would merge what stitching keeps apart.
func TestConfigDefaults(t *testing.T) {
	if gap := sessions.PaperThreshold(); dedupWindow >= gap {
		t.Fatalf("dedupWindow = %v must stay below the %v session gap", dedupWindow, gap)
	}
}

func TestHashFromURL(t *testing.T) {
	var ih metainfo.Hash
	for i := range ih {
		ih[i] = byte(i)
	}
	hex := ih.String()
	for _, url := range []string{
		"http://portal.sim/torrent/" + hex + ".torrent",
		"http://portal.sim/page/" + hex,
		hex,
	} {
		got, err := hashFromURL(url)
		if err != nil {
			t.Fatalf("hashFromURL(%q): %v", url, err)
		}
		if got != ih {
			t.Fatalf("hashFromURL(%q) = %s", url, got)
		}
	}
	for _, url := range []string{"", "http://x/torrent/zz.torrent", "http://x/page/1234"} {
		if _, err := hashFromURL(url); err == nil {
			t.Fatalf("hashFromURL(%q) succeeded", url)
		}
	}
}

func TestDefaultVantagesDistinct(t *testing.T) {
	vs := DefaultVantages(5)
	seen := map[netip.Addr]bool{}
	for _, v := range vs {
		if seen[v] {
			t.Fatalf("duplicate vantage %v", v)
		}
		seen[v] = true
	}
}

func TestSimDriverSchedules(t *testing.T) {
	sim := simclock.NewSim(simclock.Epoch)
	d := &SimDriver{Sim: sim}
	fired := false
	d.Schedule(d.Now().Add(time.Hour), func(time.Time) { fired = true })
	sim.Advance(2 * time.Hour)
	if !fired {
		t.Fatal("SimDriver did not fire")
	}
}

func TestCrawlerRequiresClients(t *testing.T) {
	if _, err := New(Config{}, nil, nil, nil, nil); err == nil {
		t.Fatal("nil dependencies accepted")
	}
}

func TestStartTwiceFails(t *testing.T) {
	sim := simclock.NewSim(simclock.Epoch)
	p, err := portal.New("t", sim)
	if err != nil {
		t.Fatal(err)
	}
	trk, err := tracker.New(stubStore{}, sim.Now)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := New(Config{},
		&SimDriver{Sim: sim},
		&InProcessPortal{P: p},
		&InProcessTracker{T: trk, Vantages: DefaultVantages(2)},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cr.Start(); err != nil {
		t.Fatal(err)
	}
	if err := cr.Start(); err == nil {
		t.Fatal("second Start accepted")
	}
}

// nopDriver satisfies Driver for tests that call queryTracker directly:
// the follow-up queries announceOnce books are dropped.
type nopDriver struct{}

func (nopDriver) Now() time.Time                      { return simclock.Epoch }
func (nopDriver) Schedule(time.Time, func(time.Time)) {}

// funcTracker is a TrackerClient whose announce is the test's own code,
// run wherever the crawler runs an announce: inside a vantage slot.
type funcTracker func(ctx context.Context, vantage int)

func (f funcTracker) Announce(ctx context.Context, _ string, _ metainfo.Hash, vantage, _ int) (*tracker.AnnounceResponse, error) {
	f(ctx, vantage)
	return nil, tracker.ErrTooSoon
}

func slotCrawler(t *testing.T, vantages, workers int, announce funcTracker) *Crawler {
	t.Helper()
	c, err := New(Config{Vantages: vantages, Workers: workers}, nopDriver{}, &InProcessPortal{}, announce, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// query runs one announce on the calling goroutine, as a driver callback
// would.
func (c *Crawler) query(vantage int) {
	c.queryTracker(simclock.Epoch, &torrentState{requery: make([]func(time.Time), c.cfg.Vantages)}, vantage, false)
}

// TestWorkerPoolRunsJobsPerVantage: each vantage owns its slots. With
// every slot of vantage 0 held by a blocked announce, queries on the
// other vantages still run to completion.
func TestWorkerPoolRunsJobsPerVantage(t *testing.T) {
	const vantages, workers = 3, 2
	held := make(chan struct{}, workers)
	unblock := make(chan struct{})
	var ran [vantages]atomic.Int64
	c := slotCrawler(t, vantages, workers, func(_ context.Context, v int) {
		if v == 0 {
			held <- struct{}{}
			<-unblock
		}
		ran[v].Add(1)
	})
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.query(0)
		}()
	}
	for i := 0; i < workers; i++ {
		<-held
	}
	for v := 1; v < vantages; v++ {
		for i := 0; i < 5; i++ {
			c.query(v)
		}
	}
	close(unblock)
	wg.Wait()
	for v, want := range [vantages]int64{workers, 5, 5} {
		if got := ran[v].Load(); got != want {
			t.Fatalf("vantage %d ran %d announces, want %d", v, got, want)
		}
	}
}

// TestWorkerPoolBoundsConcurrency: a vantage never has more than Workers
// announces in flight, however many goroutines query it.
func TestWorkerPoolBoundsConcurrency(t *testing.T) {
	const workers = 2
	var cur, peak atomic.Int64
	c := slotCrawler(t, 1, workers, func(context.Context, int) {
		n := cur.Add(1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
	})
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.query(0)
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", got, workers)
	}
}

// TestWorkerPoolCloseCancelsSubmit: Close cancels the in-flight announce,
// a query waiting for its slot gives up with false, and Close returns
// only after the in-flight announce has.
func TestWorkerPoolCloseCancelsSubmit(t *testing.T) {
	started := make(chan struct{})
	finish := make(chan struct{})
	var finished atomic.Bool
	c := slotCrawler(t, 1, 1, func(ctx context.Context, _ int) {
		close(started)
		<-ctx.Done()
		<-finish
		finished.Store(true)
	})
	go c.query(0)
	<-started
	waiter := make(chan bool, 1)
	go func() { waiter <- c.acquire(0) }()
	// Let the waiter reach its select; it must see false under any
	// interleaving with Close, the sleep only makes the blocked one likely.
	time.Sleep(10 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	select {
	case ok := <-waiter:
		if ok {
			t.Fatal("waiting query took a slot after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiting query did not unblock on Close")
	}
	select {
	case <-closed:
		t.Fatal("Close returned with an announce in flight")
	default:
	}
	close(finish)
	<-closed
	if !finished.Load() {
		t.Fatal("Close returned before the in-flight announce did")
	}
	if c.acquire(0) {
		t.Fatal("slot taken on a closed crawler")
	}
}

// TestNewCloseStartsNoGoroutine: the crawler owns no goroutine — announces
// run on whoever calls in.
func TestNewCloseStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	c := slotCrawler(t, 3, 4, func(context.Context, int) {})
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("New started %d goroutine(s)", after-before)
	}
	c.Close()
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("Close left %d goroutine(s)", after-before)
	}
}

// TestCloseTwiceReturns: the second Close finds the slots already full and
// must not try to fill them again.
func TestCloseTwiceReturns(t *testing.T) {
	c := slotCrawler(t, 2, 2, func(context.Context, int) {})
	c.Close()
	done := make(chan struct{})
	go func() {
		c.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("second Close hung")
	}
}

type stubStore struct{}

func (stubStore) Snapshot(metainfo.Hash, time.Time, int) ([]swarm.Member, int, int, error) {
	return nil, 0, 0, tracker.ErrUnknownSwarm
}

func TestInProcessTrackerNeedsVantages(t *testing.T) {
	trk, err := tracker.New(stubStore{}, time.Now)
	if err != nil {
		t.Fatal(err)
	}
	c := &InProcessTracker{T: trk}
	if _, err := c.Announce(context.Background(), "", metainfo.Hash{}, 0, 10); err == nil ||
		!strings.Contains(err.Error(), "vantage") {
		t.Fatalf("err = %v", err)
	}
}

// The serving tier's survival kit: admission control (bounded in-flight
// requests, excess turned away with 429 + Retry-After instead of queuing
// until collapse), a per-request wall-clock timeout whose expiry wears
// the standard error envelope, liveness and readiness probes, and a
// circuit breaker with exponential backoff around background snapshot
// rebuilds so a corrupt lake produces periodic retries, not a rebuild
// storm. Degraded operation is visible, never silent: stale snapshots
// carry staleness headers (see markSnapshot in server.go) and /stats
// reports the refresh state and last rebuild error.
package lakeserve

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"sync"
	"time"

	"btpub/internal/alert"
	"btpub/internal/delta"
	"btpub/internal/query"
)

const (
	// DefaultMaxConcurrent is the admission bound when
	// Server.MaxConcurrent is zero.
	DefaultMaxConcurrent = 128
	// DefaultRequestTimeout is the per-request wall-clock budget when
	// Server.RequestTimeout is zero.
	DefaultRequestTimeout = 30 * time.Second
	// DefaultRefreshBackoff is the base rebuild backoff when
	// Server.RefreshBackoff is zero; it doubles per consecutive failure
	// up to 64×.
	DefaultRefreshBackoff = time.Second
)

// retryAfter is the Retry-After value (seconds) on 429 and timeout
// responses — "shortly" in machine-readable form.
const retryAfter = "1"

// setup builds, once, what the server's paths share: the incremental
// snapshot maintainer with the alert engine behind it, the lake-backed
// query executor, and the lifecycle context background rebuilds run
// under. That context is distinct from any request context (a rebuild
// must not die with the request that kicked it) but cancelled by Close,
// so rebuilds do not outlive server shutdown.
func (s *Server) setup() {
	s.setupOnce.Do(func() {
		s.maint = delta.NewMaintainer(s.Lake, s.Geo, s.TopK)
		s.alerts = alert.NewEngine()
		s.exec, s.execErr = query.NewLake(s.Lake, s.Geo)
		s.lifeCtx, s.lifeStop = context.WithCancel(context.Background())
	})
}

// Close cancels the server's background work (in-flight snapshot
// rebuilds). Call it after http.Server.Shutdown has drained requests.
func (s *Server) Close() {
	s.setup()
	s.lifeStop()
}

// admit bounds the number of requests inside next. The semaphore is
// non-blocking: a full house answers 429 immediately with Retry-After,
// so overload sheds load instead of stacking goroutines.
func (s *Server) admit(next http.Handler) http.Handler {
	max := s.MaxConcurrent
	if max == 0 {
		max = DefaultMaxConcurrent
	}
	if max < 0 {
		return next
	}
	sem := make(chan struct{}, max)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
			next.ServeHTTP(w, r)
		default:
			w.Header().Set("Retry-After", retryAfter)
			writeError(w, http.StatusTooManyRequests, "overloaded",
				fmt.Sprintf("more than %d requests in flight; retry shortly", max))
		}
	})
}

// withTimeout bounds one request's wall time. The timeout wraps
// admission (not the other way around) so an admission slot is released
// only when the real work finishes — a timed-out response must not free
// capacity its abandoned handler is still consuming. TimeoutHandler's
// bare 503 is rewritten into the standard envelope by envelopeWriter.
func (s *Server) withTimeout(next http.Handler) http.Handler {
	d := s.RequestTimeout
	if d == 0 {
		d = DefaultRequestTimeout
	}
	if d < 0 {
		return next
	}
	return http.TimeoutHandler(next, d, "")
}

// handleHealthz is liveness: the process is up and serving HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeText(w, "ok\n")
}

// handleReadyz is readiness: the lake is open and the first analysis
// snapshot exists, so data requests will answer from cache instead of
// paying (or failing) a synchronous first build. While unready it kicks
// a background build, so readiness converges without user traffic.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.snap.Load() != nil {
		writeText(w, "ready\n")
		return
	}
	s.refreshAsync()
	w.Header().Set("Retry-After", retryAfter)
	writeError(w, http.StatusServiceUnavailable, "not_ready",
		"first analysis snapshot not built yet")
}

// refreshState is the breaker's bookkeeping, separate from the
// single-flight refreshing flag: consecutive failures, when the next
// attempt is allowed, and the last error (surfaced in /stats and the
// X-Btpub-Degraded header).
type refreshState struct {
	mu      sync.Mutex
	fails   int
	next    time.Time
	lastErr string
}

// open reports whether the breaker currently blocks rebuild attempts.
func (b *refreshState) open() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return time.Now().Before(b.next)
}

func (b *refreshState) lastError() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lastErr
}

func (b *refreshState) failure(base time.Duration, err error) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	shift := b.fails - 1
	if shift > 6 {
		shift = 6
	}
	backoff := base << shift
	b.next = time.Now().Add(backoff)
	b.lastErr = err.Error()
	return backoff
}

func (b *refreshState) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.next = time.Time{}
	b.lastErr = ""
}

// refreshAsync kicks at most one background snapshot rebuild, breaker
// permitting. The rebuild takes buildMu, and skips the build when the
// snapshot it waited behind is already current. On failure the stale
// snapshot keeps serving and the breaker opens with exponential
// backoff; on success it resets.
func (s *Server) refreshAsync() {
	if s.refresh.open() {
		return
	}
	if !s.refreshing.CompareAndSwap(false, true) {
		return
	}
	s.setup()
	go func() {
		defer s.refreshing.Store(false)
		s.buildMu.Lock()
		defer s.buildMu.Unlock()
		if cur := s.snap.Load(); cur != nil && !s.stale(cur) {
			return
		}
		snap, err := s.build(s.lifeCtx)
		if err != nil {
			base := s.RefreshBackoff
			if base <= 0 {
				base = DefaultRefreshBackoff
			}
			backoff := s.refresh.failure(base, err)
			log.Printf("lakeserve: snapshot rebuild failed (serving stale v%d, next attempt in %s): %v",
				s.version(), backoff, err)
			return
		}
		s.refresh.success()
		s.snap.Store(snap)
	}()
}

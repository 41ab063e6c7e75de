// The online detection surface: every snapshot build runs through the
// incremental maintainer (internal/delta) and feeds the identities it
// touched to the alert engine (internal/alert; see build in server.go),
// so detection cost tracks the delta, not the lake. GET /api/v1/alerts
// serves the deduplicated alert store with a since-version cursor and an
// optional long-poll.
package lakeserve

import (
	"context"
	"net/http"
	"time"
)

// maxAlertWait bounds the wait= long-poll parameter. The effective wait
// is further clamped under the request deadline so a long poll returns
// an empty feed instead of tripping the request timeout's 503.
const maxAlertWait = 5 * time.Minute

// Refresh kicks one background snapshot rebuild when the cached
// snapshot is missing or lags the lake. Refreshes are otherwise
// request-driven; push-style deployments (btpub-serve -live) call this
// on a timer so alert evaluation keeps pace with ingest without
// request traffic.
func (s *Server) Refresh() {
	if cur := s.snap.Load(); cur == nil || s.stale(cur) {
		s.refreshAsync()
	}
}

// handleAlerts is GET /api/v1/alerts: the alert feed past the since=
// cursor, sorted by ID. With wait=<duration> the request long-polls
// until an alert moves past the cursor or the wait expires (empty feed,
// 200 — resume from the returned version either way).
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	p := reqParams(r)
	since, err := p.version("since")
	if err != nil {
		fail(w, err)
		return
	}
	wait, err := p.duration("wait", maxAlertWait)
	if err != nil {
		fail(w, err)
		return
	}
	// The snapshot path drives evaluation: this both builds the first
	// snapshot and kicks a refresh when the lake moved, so the feed a
	// client reads (or waits on) converges to the live lake.
	if _, err := s.snapshotFor(w, r); err != nil {
		fail(w, err)
		return
	}
	if wait <= 0 {
		writeJSON(w, s.alerts.Since(since))
		return
	}
	if dl, ok := r.Context().Deadline(); ok {
		if m := time.Until(dl) - 100*time.Millisecond; m < wait {
			wait = m
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	writeJSON(w, s.alerts.Wait(ctx, since))
}

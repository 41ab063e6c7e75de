// Package simclock provides virtual time for the ecosystem simulation.
//
// The measurement campaigns in the paper span 30-40 days of wall-clock time.
// To reproduce them in seconds, every component in this repository reads time
// through the Clock interface instead of calling time.Now directly. A Sim
// clock advances only when told to (or when a scheduled event fires), which
// makes runs deterministic; a Real clock delegates to the time package and
// serves only wall-clock telemetry (a campaign's Elapsed).
package simclock

import (
	"container/heap"
	"sync"
	"time"
)

// Clock is the time source used by every simulated component.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
}

// Real is a Clock backed by the system clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Epoch is the instant at which simulations begin by default. The exact date
// is arbitrary but fixed so datasets are reproducible; it matches the start
// of the paper's pb10 campaign (06-Apr-2010).
var Epoch = time.Date(2010, time.April, 6, 0, 0, 0, 0, time.UTC)

// event is a scheduled callback.
type event struct {
	at  time.Time
	seq uint64 // tie-break so same-instant events fire in schedule order
	fn  func(now time.Time)
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Sim is a deterministic virtual clock with an event queue.
// The zero value is not usable; call NewSim.
type Sim struct {
	mu     sync.Mutex
	now    time.Time
	seq    uint64
	events eventHeap
}

// NewSim returns a Sim clock positioned at start.
func NewSim(start time.Time) *Sim {
	return &Sim{now: start}
}

// Now implements Clock.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Schedule registers fn to run when the clock reaches at. Events scheduled
// in the past (at <= Now) fire on the next Advance or Run call. fn runs with
// the clock positioned exactly at its deadline.
func (s *Sim) Schedule(at time.Time, fn func(now time.Time)) {
	if fn == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	heap.Push(&s.events, &event{at: at, seq: s.seq, fn: fn})
}

// After registers fn to run d after the current instant.
func (s *Sim) After(d time.Duration, fn func(now time.Time)) {
	s.Schedule(s.Now().Add(d), fn)
}

// pending returns the earliest event not after limit, or nil.
func (s *Sim) pop(limit time.Time) *event {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.events) == 0 {
		return nil
	}
	if s.events[0].at.After(limit) {
		return nil
	}
	e := heap.Pop(&s.events).(*event)
	if e.at.After(s.now) {
		s.now = e.at
	}
	return e
}

// Advance moves the clock forward by d, firing every scheduled event whose
// deadline falls inside the window, in deadline order. Callbacks may schedule
// further events; those are honoured if they fall before the window's end.
func (s *Sim) Advance(d time.Duration) {
	s.AdvanceTo(s.Now().Add(d))
}

// AdvanceTo moves the clock to t (no-op if t is in the past), firing events
// along the way. A callback runs without the clock's lock held, so it — and
// any goroutine it waits on, such as a server answering its request — may
// call Now, which reports the callback's deadline.
func (s *Sim) AdvanceTo(t time.Time) {
	for {
		e := s.pop(t)
		if e == nil {
			break
		}
		e.fn(e.at)
	}
	s.mu.Lock()
	if t.After(s.now) {
		s.now = t
	}
	s.mu.Unlock()
}

// Len reports the number of scheduled events still pending.
func (s *Sim) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events)
}

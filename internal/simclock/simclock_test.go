package simclock

import (
	"testing"
	"time"
)

func TestSimNowStartsAtGivenInstant(t *testing.T) {
	start := time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)
	c := NewSim(start)
	if !c.Now().Equal(start) {
		t.Fatalf("Now() = %v, want %v", c.Now(), start)
	}
}

func TestAdvanceMovesClock(t *testing.T) {
	c := NewSim(Epoch)
	c.Advance(90 * time.Minute)
	want := Epoch.Add(90 * time.Minute)
	if !c.Now().Equal(want) {
		t.Fatalf("Now() = %v, want %v", c.Now(), want)
	}
}

func TestScheduledEventsFireInOrder(t *testing.T) {
	c := NewSim(Epoch)
	var order []int
	c.Schedule(Epoch.Add(2*time.Hour), func(time.Time) { order = append(order, 2) })
	c.Schedule(Epoch.Add(1*time.Hour), func(time.Time) { order = append(order, 1) })
	c.Schedule(Epoch.Add(3*time.Hour), func(time.Time) { order = append(order, 3) })
	c.Advance(150 * time.Minute)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("fired order = %v, want [1 2]", order)
	}
	c.Advance(time.Hour)
	if len(order) != 3 || order[2] != 3 {
		t.Fatalf("fired order = %v, want [1 2 3]", order)
	}
}

func TestSameInstantEventsFireInScheduleOrder(t *testing.T) {
	c := NewSim(Epoch)
	at := Epoch.Add(time.Hour)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.Schedule(at, func(time.Time) { order = append(order, i) })
	}
	c.Advance(2 * time.Hour)
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (full %v)", i, v, i, order)
		}
	}
}

func TestEventSeesClockAtItsDeadline(t *testing.T) {
	c := NewSim(Epoch)
	deadline := Epoch.Add(45 * time.Minute)
	var sawNow, sawClock time.Time
	c.Schedule(deadline, func(now time.Time) {
		sawNow = now
		sawClock = c.Now()
	})
	c.Advance(time.Hour)
	if !sawNow.Equal(deadline) {
		t.Errorf("callback now = %v, want %v", sawNow, deadline)
	}
	if !sawClock.Equal(deadline) {
		t.Errorf("clock during callback = %v, want %v", sawClock, deadline)
	}
}

func TestCallbackMayScheduleWithinWindow(t *testing.T) {
	c := NewSim(Epoch)
	var fired []string
	c.Schedule(Epoch.Add(10*time.Minute), func(now time.Time) {
		fired = append(fired, "first")
		c.Schedule(now.Add(10*time.Minute), func(time.Time) {
			fired = append(fired, "chained")
		})
	})
	c.Advance(30 * time.Minute)
	if len(fired) != 2 || fired[1] != "chained" {
		t.Fatalf("fired = %v, want [first chained]", fired)
	}
}

func TestChainedEventBeyondWindowDefers(t *testing.T) {
	c := NewSim(Epoch)
	var fired []string
	c.Schedule(Epoch.Add(10*time.Minute), func(now time.Time) {
		fired = append(fired, "first")
		c.Schedule(now.Add(2*time.Hour), func(time.Time) {
			fired = append(fired, "late")
		})
	})
	c.Advance(30 * time.Minute)
	if len(fired) != 1 {
		t.Fatalf("fired = %v, want only [first]", fired)
	}
	c.Advance(2 * time.Hour)
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want [first late]", fired)
	}
}

func TestAdvanceToPastIsNoOp(t *testing.T) {
	c := NewSim(Epoch)
	c.Advance(time.Hour)
	c.AdvanceTo(Epoch) // in the past
	if got := c.Now(); !got.Equal(Epoch.Add(time.Hour)) {
		t.Fatalf("Now() = %v, want %v", got, Epoch.Add(time.Hour))
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	c := NewSim(Epoch)
	c.Advance(time.Hour)
	fired := time.Time{}
	c.After(30*time.Minute, func(now time.Time) { fired = now })
	c.Advance(time.Hour)
	want := Epoch.Add(90 * time.Minute)
	if !fired.Equal(want) {
		t.Fatalf("After fired at %v, want %v", fired, want)
	}
}

func TestLenCountsPending(t *testing.T) {
	c := NewSim(Epoch)
	for i := 1; i <= 5; i++ {
		c.Schedule(Epoch.Add(time.Duration(i)*time.Hour), func(time.Time) {})
	}
	if c.Len() != 5 {
		t.Fatalf("Len = %d, want 5", c.Len())
	}
	c.Advance(3 * time.Hour)
	if c.Len() != 2 {
		t.Fatalf("Len after advance = %d, want 2", c.Len())
	}
}

func TestNilCallbackIgnored(t *testing.T) {
	c := NewSim(Epoch)
	c.Schedule(Epoch.Add(time.Hour), nil)
	if c.Len() != 0 {
		t.Fatalf("nil callback was scheduled")
	}
	c.Advance(2 * time.Hour) // must not panic
}

func TestRealClockProgresses(t *testing.T) {
	var c Clock = Real{}
	a := c.Now()
	b := c.Now()
	if b.Before(a) {
		t.Fatalf("real clock went backwards: %v then %v", a, b)
	}
}

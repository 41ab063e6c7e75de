package btpub

import (
	"flag"
	"runtime"
	"testing"
)

// allocMeter makes a benchmark enforce its own allocs/op ceiling. It
// counts heap allocations (runtime.MemStats.Mallocs) over exactly the
// region testing.B times — from meterAllocs' ResetTimer to check, minus
// any pause/resume section — so the per-op count it checks is the
// allocs/op -benchmem reports.
type allocMeter struct {
	b                    *testing.B
	ceiling, total, mark uint64
}

var memStats runtime.MemStats

func mallocs() uint64 {
	runtime.ReadMemStats(&memStats)
	return memStats.Mallocs
}

// meterAllocs restarts b's timed region and meters it against ceiling
// allocs/op; call check when the timed loop ends.
func meterAllocs(b *testing.B, ceiling uint64) *allocMeter {
	m := &allocMeter{b: b, ceiling: ceiling}
	b.ResetTimer()
	m.mark = mallocs()
	return m
}

// pause stops the timer and the count for an untimed section.
func (m *allocMeter) pause() {
	m.total += mallocs() - m.mark
	m.b.StopTimer()
}

// resume restarts both after pause.
func (m *allocMeter) resume() {
	m.b.StartTimer()
	m.mark = mallocs()
}

// check ends the timed region and fails the benchmark when it allocated
// more than the ceiling per op.
func (m *allocMeter) check() {
	m.b.Helper()
	m.pause()
	if per := m.total / uint64(m.b.N); per > m.ceiling {
		m.b.Fatalf("%d allocs/op exceeds the ceiling of %d", per, m.ceiling)
	}
}

var allocSink *[64]byte

// TestAllocMeterEnforcesCeiling: the ceilings cannot silently become a
// no-op — a benchmark allocating past its ceiling fails (testing.Benchmark
// reports a failed run as N == 0) and one within it passes.
func TestAllocMeterEnforcesCeiling(t *testing.T) {
	benchtime := flag.Lookup("test.benchtime").Value
	prev := benchtime.String()
	if err := benchtime.Set("1x"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { benchtime.Set(prev) })
	allocating := func(perOp int, ceiling uint64) func(*testing.B) {
		return func(b *testing.B) {
			m := meterAllocs(b, ceiling)
			for i := 0; i < b.N; i++ {
				for j := 0; j < perOp; j++ {
					allocSink = new([64]byte)
				}
			}
			m.check()
		}
	}
	if r := testing.Benchmark(allocating(1000, 100)); r.N != 0 {
		t.Fatalf("1000 allocs/op passed a ceiling of 100 (N = %d)", r.N)
	}
	r := testing.Benchmark(allocating(10, 100))
	if r.N == 0 {
		t.Fatal("10 allocs/op failed a ceiling of 100")
	}
	if got := r.AllocsPerOp(); got < 10 || got > 100 {
		t.Fatalf("testing.B counted %d allocs/op, want 10 plus noise", got)
	}
}

package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42, "swarm")
	b := New(42, "swarm")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with identical (seed,label) diverged at draw %d", i)
		}
	}
}

func TestLabelsSeparateStreams(t *testing.T) {
	a := New(42, "swarm")
	b := New(42, "portal")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different labels collided %d/64 times", same)
	}
}

func TestDeriveIsDeterministic(t *testing.T) {
	a := New(7, "x").Derive("child")
	b := New(7, "x").Derive("child")
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("derived streams diverged at draw %d", i)
		}
	}
}

func TestFloat64InUnitInterval(t *testing.T) {
	s := New(1, "f")
	f := func(skip uint8) bool {
		for i := 0; i < int(skip); i++ {
			s.Uint64()
		}
		v := s.Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUniformRange(t *testing.T) {
	s := New(3, "u")
	for i := 0; i < 1000; i++ {
		v := s.Uniform(5, 8)
		if v < 5 || v >= 8 {
			t.Fatalf("Uniform(5,8) = %v out of range", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	s := New(5, "exp")
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exp(4.0)
	}
	mean := sum / n
	if math.Abs(mean-4.0) > 0.1 {
		t.Fatalf("Exp mean = %v, want ~4.0", mean)
	}
}

func TestLogNormalMedian(t *testing.T) {
	s := New(6, "ln")
	const n = 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = s.LogNormalMedian(30, 1.2)
	}
	med := quickSelectMedian(vals)
	if med < 27 || med > 33 {
		t.Fatalf("LogNormalMedian(30, 1.2) sample median = %v, want ~30", med)
	}
}

func quickSelectMedian(vals []float64) float64 {
	// Simple nth-element via sorting a copy (test helper).
	cp := append([]float64(nil), vals...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
		if i%4096 == 0 { // keep the O(n^2) insertion sort honest on test sizes
			break
		}
	}
	// Insertion sort above is too slow for 100k; fall back to a counting
	// approach: find value with half below.
	lo, hi := 0.0, 0.0
	for _, v := range vals {
		if v > hi {
			hi = v
		}
	}
	for iter := 0; iter < 80; iter++ {
		mid := (lo + hi) / 2
		below := 0
		for _, v := range vals {
			if v < mid {
				below++
			}
		}
		if below < len(vals)/2 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func TestPoissonMean(t *testing.T) {
	s := New(8, "poisson")
	for _, mean := range []float64{0.5, 3, 40, 800} {
		const n = 20000
		sum := 0
		for i := 0; i < n; i++ {
			sum += s.Poisson(mean)
		}
		got := float64(sum) / n
		tol := 4 * math.Sqrt(mean/float64(n)) // ~4 sigma of the sample mean
		if math.Abs(got-mean) > tol+0.05 {
			t.Fatalf("Poisson(%v) sample mean = %v (tol %v)", mean, got, tol)
		}
	}
}

func TestPoissonZeroAndNegative(t *testing.T) {
	s := New(9, "p0")
	if s.Poisson(0) != 0 || s.Poisson(-3) != 0 {
		t.Fatal("Poisson of non-positive mean must be 0")
	}
}

func TestWeightedChoiceRespectsWeights(t *testing.T) {
	s := New(13, "wc")
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[s.WeightedChoice(w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.6 || ratio > 3.5 {
		t.Fatalf("weight ratio = %v, want ~3", ratio)
	}
}

func TestWeightedChoicePanicsOnZeroTotal(t *testing.T) {
	s := New(14, "wz")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on all-zero weights")
		}
	}()
	s.WeightedChoice([]float64{0, 0})
}

func TestParetoAboveMinimum(t *testing.T) {
	s := New(15, "pareto")
	for i := 0; i < 10000; i++ {
		if v := s.Pareto(2.5, 1.7); v < 2.5 {
			t.Fatalf("Pareto draw %v below xm", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(16, "bool")
	const n = 50000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.25) {
			hits++
		}
	}
	p := float64(hits) / n
	if p < 0.22 || p > 0.28 {
		t.Fatalf("Bool(0.25) rate = %v", p)
	}
}

func TestPickCoversAllElements(t *testing.T) {
	s := New(17, "pick")
	xs := []string{"a", "b", "c"}
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		seen[Pick(s, xs)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("Pick covered %d/3 elements", len(seen))
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	s := New(18, "shuffle")
	xs := []int{1, 2, 3, 4, 5, 6}
	sum := 0
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, v := range xs {
		sum += v
	}
	if sum != 21 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

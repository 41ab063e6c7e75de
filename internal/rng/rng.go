// Package rng provides deterministic random streams for the simulation.
//
// Every stochastic decision in the ecosystem draws from a Stream derived
// from a scenario seed plus a stable label, so that (a) runs are exactly
// reproducible and (b) changing one subsystem's draws does not perturb the
// others. Streams are backed by PCG from math/rand/v2.
package rng

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand/v2"
)

// Stream is a deterministic random source with distribution helpers.
type Stream struct {
	r *rand.Rand
}

// New returns a Stream seeded from seed and a stable label. Identical
// (seed, label) pairs always produce identical streams.
func New(seed uint64, label string) *Stream {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	return &Stream{r: rand.New(rand.NewPCG(seed, h.Sum64()))}
}

// Labeled returns the stream identified by (seed, label, n). Unlike
// Derive, the construction is pure: it consumes no other stream's state, so
// the same triple yields the same stream no matter which goroutine, shard
// or call order creates it. The sharded campaign engine keys every
// per-torrent stream this way, which is what makes the merged dataset
// identical for any shard count.
func Labeled(seed uint64, label string, n int) *Stream {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(n))
	_, _ = h.Write(b[:])
	return &Stream{r: rand.New(rand.NewPCG(seed, h.Sum64()))}
}

// Derive returns a child stream whose draws are independent of the parent's
// position; it depends only on the parent's identity and the label.
func (s *Stream) Derive(label string) *Stream {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	// Mix a fresh pair from the parent identity: use two raw draws from a
	// clone-like scheme. We cannot clone rand.Rand, so derive from label and
	// one parent draw; the parent's position advances by exactly one draw.
	return &Stream{r: rand.New(rand.NewPCG(s.r.Uint64(), h.Sum64()))}
}

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// IntN returns a uniform value in [0, n). It panics if n <= 0.
func (s *Stream) IntN(n int) int { return s.r.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (s *Stream) Uint64() uint64 { return s.r.Uint64() }

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool { return s.r.Float64() < p }

// Shuffle randomises the order of n elements using swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }

// Uniform returns a value uniform in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Exp returns an exponentially distributed value with the given mean.
func (s *Stream) Exp(mean float64) float64 {
	return s.r.ExpFloat64() * mean
}

// Normal returns a normally distributed value.
func (s *Stream) Normal(mean, stddev float64) float64 {
	return s.r.NormFloat64()*stddev + mean
}

// LogNormalMedian returns a log-normal draw parameterised by its median and
// the sigma of the underlying normal: median*exp(N(0, sigma)).
func (s *Stream) LogNormalMedian(median, sigma float64) float64 {
	return median * math.Exp(s.r.NormFloat64()*sigma)
}

// Pareto returns a Pareto(xm, alpha) draw: xm / U^(1/alpha).
func (s *Stream) Pareto(xm, alpha float64) float64 {
	u := s.r.Float64()
	for u == 0 {
		u = s.r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Poisson returns a Poisson draw with the given mean, using inversion for
// small means and normal approximation above 500 (adequate for workload
// generation).
func (s *Stream) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 500 {
		n := int(math.Round(s.Normal(mean, math.Sqrt(mean))))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= s.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// WeightedChoice selects index i with probability weights[i]/sum(weights).
// Zero or negative weights never win. It panics if the sum is not positive.
func (s *Stream) WeightedChoice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("rng: WeightedChoice needs a positive total weight")
	}
	u := s.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u < acc {
			return i
		}
	}
	// Floating point edge: return last positive index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return 0
}

// Pick returns a uniformly chosen element of xs. It panics on empty input.
func Pick[T any](s *Stream, xs []T) T {
	return xs[s.IntN(len(xs))]
}

// Package xrand provides the deterministic randomness substrate used by
// every stochastic component in this repository.
//
// The package exists so that experiments are bit-reproducible: all
// generators derive from an explicit, seedable Source (a SplitMix64
// stream), and independent sub-streams can be forked from a parent stream
// by label, so adding randomness consumers to one module never perturbs
// the draws observed by another.
package xrand

import (
	"hash/fnv"
	"math"
)

// Source is a deterministic 64-bit pseudo-random stream based on
// SplitMix64 (Steele, Lea & Flood, OOPSLA'14). It is tiny, fast,
// equidistributed enough for simulation workloads, and trivially
// forkable. A Source is NOT safe for concurrent use; fork per goroutine.
type Source struct {
	state uint64
	seed  uint64 // initial seed, preserved so Fork is use-independent
}

// NewSource returns a Source seeded with seed. Distinct seeds give
// independent-looking streams; seed 0 is valid.
func NewSource(seed uint64) *Source {
	return &Source{state: seed, seed: seed}
}

// Fork derives an independent child stream from the parent's seed and a
// string label. The parent's own state is not consumed, so the set of
// children is stable regardless of how much the parent has been used.
func (s *Source) Fork(label string) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	// Mix the label hash with the parent's initial entropy (one
	// SplitMix64 round over the seed, not the advancing state).
	z := mix64(s.seed + 0x9e3779b97f4a7c15)
	return NewSource(z ^ h.Sum64())
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix64(s.state)
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (s *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int63n called with non-positive n")
	}
	return int64(s.Uint64() % uint64(n))
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a standard normal deviate (Box–Muller; we favour
// simplicity over the ziggurat since simulation setup is not hot).
func (s *Source) NormFloat64() float64 {
	for {
		u := s.Float64()
		if u == 0 {
			continue
		}
		v := s.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// ExpFloat64 returns an exponential deviate with rate 1.
func (s *Source) ExpFloat64() float64 {
	for {
		u := s.Float64()
		if u == 0 {
			continue
		}
		return -math.Log(u)
	}
}

// LogNormal returns a log-normal deviate with the given location mu and
// scale sigma of the underlying normal.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.NormFloat64())
}

// Gamma returns a Gamma(shape, 1) deviate using the Marsaglia–Tsang
// method (2000). shape must be > 0.
func (s *Source) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("xrand: Gamma called with non-positive shape")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^{1/a}.
		u := s.Float64()
		for u == 0 {
			u = s.Float64()
		}
		return s.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := s.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := s.Float64()
		if u == 0 {
			continue
		}
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Dirichlet fills out with a draw from a Dirichlet distribution with the
// given concentration parameters alpha (all > 0). out and alpha must have
// the same length; out may be alpha itself, drawing in place. The result
// sums to 1.
func (s *Source) Dirichlet(alpha []float64, out []float64) {
	if len(alpha) != len(out) {
		panic("xrand: Dirichlet length mismatch")
	}
	var sum float64
	for i, a := range alpha {
		g := s.Gamma(a)
		out[i] = g
		sum += g
	}
	if sum == 0 {
		// Degenerate draw (possible for tiny alphas); fall back to uniform.
		u := 1 / float64(len(out))
		for i := range out {
			out[i] = u
		}
		return
	}
	for i := range out {
		out[i] /= sum
	}
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	return s.Float64() < p
}

// Poisson returns a Poisson(lambda) deviate. For large lambda it uses a
// normal approximation, which is adequate for workload generation.
func (s *Source) Poisson(lambda float64) int64 {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		n := math.Round(lambda + math.Sqrt(lambda)*s.NormFloat64())
		if n < 0 {
			return 0
		}
		return int64(n)
	}
	// Knuth's multiplication method.
	limit := math.Exp(-lambda)
	var k int64
	p := 1.0
	for {
		p *= s.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}

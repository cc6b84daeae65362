package xrand

import "math"

// Zipf samples ranks in [0, n) with probability proportional to
// 1/(rank+1)^s, i.e. a bounded Zipf (zeta) distribution. It precomputes
// the CDF once, so sampling is O(log n) by binary search; construction is
// O(n). This matches how the repository uses Zipf: a fixed vocabulary or
// catalog is built once and sampled many times.
type Zipf struct {
	cdf []float64
	src *Source
}

// NewZipf returns a bounded Zipf sampler over n ranks with exponent s.
// It panics if n <= 0 or s < 0.
func NewZipf(src *Source, s float64, n int) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with non-positive n")
	}
	if s < 0 {
		panic("xrand: NewZipf with negative exponent")
	}
	cdf := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, src: src}
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// Rank draws one rank in [0, N()).
func (z *Zipf) Rank() int {
	u := z.src.Float64()
	return searchCDF(z.cdf, u)
}

// CDF returns the cumulative probability of ranks 0..rank. It returns 0
// for negative ranks and 1 beyond the last rank.
func (z *Zipf) CDF(rank int) float64 {
	if rank < 0 {
		return 0
	}
	if rank >= len(z.cdf) {
		return 1
	}
	return z.cdf[rank]
}

// Prob returns the probability mass of the given rank.
func (z *Zipf) Prob(rank int) float64 {
	if rank < 0 || rank >= len(z.cdf) {
		return 0
	}
	if rank == 0 {
		return z.cdf[0]
	}
	return z.cdf[rank] - z.cdf[rank-1]
}

func searchCDF(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Categorical samples indices in [0, len(weights)) with probability
// proportional to the (non-negative) weights, via a precomputed CDF.
//
// Draws go through a guide table (Chen & Asau's indexed search): guide[k]
// is the first index whose CDF reaches k/len(guide), so a draw u starts
// its search at guide[int(u*len(guide))] and scans forward a step or two.
// len(guide) is a power of two, which makes u*len(guide) and k/len(guide)
// exact, so the index drawn is exactly the binary search's (searchCDF)
// for every u: only the cost of a draw depends on the guide table.
type Categorical struct {
	cdf   []float64
	guide []int32
	src   *Source
}

// NewCategorical builds a categorical sampler from weights. It panics if
// weights is empty, contains a negative, NaN or infinite entry, or sums
// to zero or to infinity.
func NewCategorical(src *Source, weights []float64) *Categorical {
	c := new(Categorical)
	c.Reset(src, weights)
	return c
}

// Reset re-initializes c to sample from weights with src, reusing c's
// storage, so a hot loop can sample one distribution after another
// without allocating. It panics on the inputs NewCategorical rejects.
func (c *Categorical) Reset(src *Source, weights []float64) {
	if len(weights) == 0 {
		panic("xrand: NewCategorical with empty weights")
	}
	if len(weights) > math.MaxInt32 {
		panic("xrand: NewCategorical with too many weights")
	}
	c.src = src
	c.cdf = resize(c.cdf, len(weights))
	var sum float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			panic("xrand: NewCategorical with negative, NaN or infinite weight")
		}
		sum += w
		c.cdf[i] = sum
	}
	if sum == 0 {
		panic("xrand: NewCategorical with zero total weight")
	}
	if math.IsInf(sum, 0) {
		panic("xrand: NewCategorical with infinite total weight")
	}
	for i := range c.cdf {
		c.cdf[i] /= sum
	}

	m := 1
	for m < len(c.cdf) {
		m <<= 1
	}
	c.guide = resize(c.guide, m)
	last := len(c.cdf) - 1
	i := 0
	for k := range c.guide {
		t := float64(k) / float64(m)
		for i < last && c.cdf[i] < t {
			i++
		}
		c.guide[k] = int32(i)
	}
}

// resize returns s with length n, reusing its backing array when it is
// large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Draw samples one index.
func (c *Categorical) Draw() int {
	return c.index(c.src.Float64())
}

// index returns searchCDF(c.cdf, u) for u in [0, 1). The CDF is
// non-decreasing, every index below guide[k] has CDF < k/m <= u, and the
// scan stops at the first index whose CDF reaches u (or at the last), so
// it lands exactly where the binary search does.
func (c *Categorical) index(u float64) int {
	i := int(c.guide[int(u*float64(len(c.guide)))])
	last := len(c.cdf) - 1
	for i < last && c.cdf[i] < u {
		i++
	}
	return i
}

// N returns the number of categories.
func (c *Categorical) N() int { return len(c.cdf) }

// Multinomial distributes total units across the categories by repeated
// categorical draws when total is small, or by a single pass of expected
// counts plus stochastic rounding when total is large. The returned slice
// always sums exactly to total.
func (c *Categorical) Multinomial(total int64) []int64 {
	out := make([]int64, len(c.cdf))
	if total <= 0 {
		return out
	}
	const exactThreshold = 2048
	if total <= exactThreshold {
		for i := int64(0); i < total; i++ {
			out[c.Draw()]++
		}
		return out
	}
	// Large totals: expected value + stochastic rounding of remainders,
	// then fix up any residual on categorical draws.
	var assigned int64
	prev := 0.0
	for i, cv := range c.cdf {
		p := cv - prev
		prev = cv
		exp := p * float64(total)
		base := math.Floor(exp)
		n := int64(base)
		if c.src.Float64() < exp-base {
			n++
		}
		out[i] = n
		assigned += n
	}
	for assigned < total {
		out[c.Draw()]++
		assigned++
	}
	for assigned > total {
		i := c.Draw()
		if out[i] > 0 {
			out[i]--
			assigned--
		}
	}
	return out
}

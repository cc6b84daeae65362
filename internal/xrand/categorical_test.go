package xrand

import (
	"math"
	"testing"
)

// randomWeights draws a weight vector that exercises the guide table's
// edge cases: zero weights (repeated CDF steps, including a leading
// run), ties, and magnitudes spread over many orders.
func randomWeights(src *Source) []float64 {
	sizes := []int{1, 2, 3, 7, 8, 9, 60, 63, 64, 65, 255, 256, 257, 1000}
	n := sizes[src.Intn(len(sizes))]
	w := make([]float64, n)
	for i := range w {
		switch r := src.Intn(10); {
		case r < 3:
			w[i] = 0
		case r < 5 && i > 0:
			w[i] = w[i-1]
		case r < 6:
			w[i] = math.Ldexp(src.Float64(), -src.Intn(200))
		case r < 7:
			w[i] = float64(1 + src.Intn(4))
		default:
			w[i] = src.Float64()
		}
	}
	if src.Bernoulli(0.1) {
		for i := range w {
			w[i] = 1 // all ties: every CDF step is a multiple of 1/n
		}
	}
	w[src.Intn(n)] += 0.5 // never all zero
	return w
}

// probes returns the draws worth checking against a CDF: uniform draws,
// 0, every CDF value exactly and its neighbours on both sides, and every
// guide-bucket threshold k/m.
func probes(src *Source, c *Categorical) []float64 {
	us := []float64{0, math.Nextafter(1, 0)}
	for i := 0; i < 64; i++ {
		us = append(us, src.Float64())
	}
	for _, x := range c.cdf {
		us = append(us, x, math.Nextafter(x, 0), math.Nextafter(x, 1))
	}
	for k := range c.guide {
		us = append(us, float64(k)/float64(len(c.guide)))
	}
	out := us[:0]
	for _, u := range us {
		if u >= 0 && u < 1 { // Float64's range
			out = append(out, u)
		}
	}
	return out
}

func TestCategoricalDrawMatchesBinarySearch(t *testing.T) {
	src := NewSource(20110301)
	var reused Categorical
	for trial := 0; trial < 2000; trial++ {
		w := randomWeights(src)
		c := NewCategorical(NewSource(1), w)
		reused.Reset(NewSource(1), w)
		for _, u := range probes(src, c) {
			want := searchCDF(c.cdf, u)
			if got := c.index(u); got != want {
				t.Fatalf("trial %d weights %v: index(%v) = %d, binary search %d", trial, w, u, got, want)
			}
			if got := reused.index(u); got != want {
				t.Fatalf("trial %d: reused sampler index(%v) = %d, binary search %d", trial, u, got, want)
			}
		}
	}
}

// multinomialBySearch is Multinomial with every categorical draw made by
// binary search — the sampler before the guide table.
func multinomialBySearch(cdf []float64, src *Source, total int64) []int64 {
	out := make([]int64, len(cdf))
	if total <= 0 {
		return out
	}
	draw := func() int { return searchCDF(cdf, src.Float64()) }
	if total <= 2048 {
		for i := int64(0); i < total; i++ {
			out[draw()]++
		}
		return out
	}
	var assigned int64
	prev := 0.0
	for i, cv := range cdf {
		p := cv - prev
		prev = cv
		exp := p * float64(total)
		base := math.Floor(exp)
		n := int64(base)
		if src.Float64() < exp-base {
			n++
		}
		out[i] = n
		assigned += n
	}
	for assigned < total {
		out[draw()]++
		assigned++
	}
	for assigned > total {
		i := draw()
		if out[i] > 0 {
			out[i]--
			assigned--
		}
	}
	return out
}

func TestMultinomialUnchangedByGuideTable(t *testing.T) {
	src := NewSource(7)
	totals := []int64{0, 1, 2, 50, 2047, 2048, 2049, 5000, 1_000_003}
	for trial := 0; trial < 300; trial++ {
		w := randomWeights(src)
		total := totals[trial%len(totals)]
		seed := src.Uint64()
		c := NewCategorical(NewSource(seed), w)
		got := c.Multinomial(total)
		ref := NewSource(seed)
		want := multinomialBySearch(c.cdf, ref, total)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d total %d: counts %v, binary-search sampler %v", trial, total, got, want)
			}
		}
		if c.src.Uint64() != ref.Uint64() {
			t.Fatalf("trial %d total %d: streams diverged after Multinomial", trial, total)
		}
	}
}

func TestCategoricalResetReusesStorage(t *testing.T) {
	var c Categorical
	c.Reset(NewSource(1), []float64{1, 2, 3, 4})
	cdf, guide := &c.cdf[0], &c.guide[0]
	c.Reset(NewSource(2), []float64{4, 3})
	if &c.cdf[0] != cdf || &c.guide[0] != guide {
		t.Fatal("Reset to a smaller distribution reallocated")
	}
	if c.N() != 2 || len(c.guide) != 2 {
		t.Fatalf("after Reset: %d categories, guide of %d", c.N(), len(c.guide))
	}
}

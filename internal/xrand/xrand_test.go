package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSourceDeterminism(t *testing.T) {
	a := NewSource(42)
	b := NewSource(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: sources with same seed diverged: %d != %d", i, got, want)
		}
	}
}

func TestSourceSeedsDiffer(t *testing.T) {
	a := NewSource(1)
	b := NewSource(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws in 100", same)
	}
}

func TestForkIndependentOfParentUse(t *testing.T) {
	a := NewSource(7)
	childBefore := a.Fork("worker").Uint64()
	for i := 0; i < 50; i++ {
		a.Uint64() // consume parent
	}
	childAfter := a.Fork("worker").Uint64()
	if childBefore != childAfter {
		t.Fatalf("fork depends on parent consumption: %d != %d", childBefore, childAfter)
	}
}

func TestForkLabelsDiffer(t *testing.T) {
	a := NewSource(7)
	if a.Fork("x").Uint64() == a.Fork("y").Uint64() {
		t.Fatal("forks with different labels produced the same first draw")
	}
}

func TestFloat64Range(t *testing.T) {
	s := NewSource(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := NewSource(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := NewSource(5)
	for n := 1; n <= 17; n++ {
		seen := make(map[int]bool)
		for i := 0; i < 200*n; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
			seen[v] = true
		}
		if len(seen) != n {
			t.Fatalf("Intn(%d) only produced %d distinct values", n, len(seen))
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewSource(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	s := NewSource(9)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := NewSource(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	s := NewSource(17)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := s.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64 negative: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestGammaMean(t *testing.T) {
	for _, shape := range []float64{0.5, 1, 2.5, 9} {
		s := NewSource(19)
		const n = 100000
		var sum float64
		for i := 0; i < n; i++ {
			v := s.Gamma(shape)
			if v < 0 {
				t.Fatalf("Gamma(%v) negative: %v", shape, v)
			}
			sum += v
		}
		mean := sum / n
		if math.Abs(mean-shape) > 0.05*shape+0.02 {
			t.Errorf("Gamma(%v) mean = %v, want ~%v", shape, mean, shape)
		}
	}
}

func TestDirichletSumsToOne(t *testing.T) {
	s := NewSource(23)
	alpha := []float64{0.2, 1, 3, 0.5, 2}
	out := make([]float64, len(alpha))
	for i := 0; i < 1000; i++ {
		s.Dirichlet(alpha, out)
		var sum float64
		for _, v := range out {
			if v < 0 {
				t.Fatalf("Dirichlet produced negative component: %v", out)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("Dirichlet sum = %v, want 1", sum)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	for _, lambda := range []float64{0.5, 4, 30, 500} {
		s := NewSource(29)
		const n = 50000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(s.Poisson(lambda))
		}
		mean := sum / n
		if math.Abs(mean-lambda) > 0.05*lambda+0.05 {
			t.Errorf("Poisson(%v) mean = %v", lambda, mean)
		}
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	z := NewZipf(NewSource(1), 1.1, 500)
	var sum float64
	for i := 0; i < z.N(); i++ {
		sum += z.Prob(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("Zipf probabilities sum to %v", sum)
	}
}

func TestZipfMonotoneHead(t *testing.T) {
	z := NewZipf(NewSource(1), 1.0, 100)
	for i := 1; i < 100; i++ {
		if z.Prob(i) > z.Prob(i-1)+1e-12 {
			t.Fatalf("Zipf mass not non-increasing at rank %d", i)
		}
	}
}

func TestZipfEmpiricalSkew(t *testing.T) {
	src := NewSource(31)
	z := NewZipf(src, 1.0, 1000)
	counts := make([]int, 1000)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Rank()]++
	}
	if counts[0] <= counts[10] {
		t.Fatalf("rank 0 (%d) not more frequent than rank 10 (%d)", counts[0], counts[10])
	}
	// Rank 0 of Zipf(1.0, 1000) should hold ~13% of the mass.
	frac := float64(counts[0]) / n
	if frac < 0.10 || frac > 0.17 {
		t.Fatalf("rank-0 frequency %v outside expected Zipf head", frac)
	}
}

func TestZipfRankInRangeProperty(t *testing.T) {
	src := NewSource(37)
	z := NewZipf(src, 0.8, 77)
	f := func(_ uint32) bool {
		r := z.Rank()
		return r >= 0 && r < 77
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCategoricalRespectsZeroWeights(t *testing.T) {
	src := NewSource(41)
	c := NewCategorical(src, []float64{0, 1, 0, 2, 0})
	for i := 0; i < 10000; i++ {
		d := c.Draw()
		if d != 1 && d != 3 {
			t.Fatalf("drew zero-weight category %d", d)
		}
	}
}

func TestCategoricalProportions(t *testing.T) {
	src := NewSource(43)
	c := NewCategorical(src, []float64{1, 3})
	n1 := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if c.Draw() == 1 {
			n1++
		}
	}
	if frac := float64(n1) / n; math.Abs(frac-0.75) > 0.01 {
		t.Fatalf("category-1 frequency %v, want ~0.75", frac)
	}
}

func TestMultinomialSumsExactly(t *testing.T) {
	src := NewSource(47)
	c := NewCategorical(src, []float64{5, 1, 0.1, 3, 0})
	for _, total := range []int64{0, 1, 7, 100, 2048, 2049, 1000000} {
		out := c.Multinomial(total)
		var sum int64
		for i, v := range out {
			if v < 0 {
				t.Fatalf("total=%d: negative count at %d: %v", total, i, out)
			}
			sum += v
		}
		if sum != total {
			t.Fatalf("total=%d: counts sum to %d", total, sum)
		}
		if out[4] != 0 {
			t.Fatalf("total=%d: zero-weight category received %d units", total, out[4])
		}
	}
}

func TestMultinomialProportionsLarge(t *testing.T) {
	src := NewSource(53)
	c := NewCategorical(src, []float64{1, 1, 2})
	out := c.Multinomial(4_000_000)
	frac2 := float64(out[2]) / 4_000_000
	if math.Abs(frac2-0.5) > 0.01 {
		t.Fatalf("heavy category got fraction %v, want ~0.5", frac2)
	}
}

func TestCategoricalPanics(t *testing.T) {
	for name, weights := range map[string][]float64{
		"empty":    {},
		"negative": {1, -1},
		"zero-sum": {0, 0},
		"infinite": {1, math.Inf(1)},
		"overflow": {math.MaxFloat64, math.MaxFloat64},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewCategorical(%v) did not panic", weights)
				}
			}()
			NewCategorical(NewSource(1), weights)
		})
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := NewSource(59)
	for i := 0; i < 10000; i++ {
		if v := s.LogNormal(2, 1.5); v <= 0 {
			t.Fatalf("LogNormal produced non-positive %v", v)
		}
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	s := NewSource(61)
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

func TestInt63nBounds(t *testing.T) {
	s := NewSource(71)
	for i := 0; i < 5000; i++ {
		v := s.Int63n(1000000007)
		if v < 0 || v >= 1000000007 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Int63n(0) did not panic")
		}
	}()
	s.Int63n(0)
}

func TestBernoulliFrequency(t *testing.T) {
	s := NewSource(73)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	if f := float64(hits) / n; math.Abs(f-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency %v", f)
	}
	if s.Bernoulli(0) {
		t.Fatal("Bernoulli(0) fired")
	}
}

func TestDirichletPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dirichlet length mismatch did not panic")
		}
	}()
	NewSource(1).Dirichlet([]float64{1, 1}, make([]float64, 3))
}

func TestZipfCDFShape(t *testing.T) {
	z := NewZipf(NewSource(1), 1.0, 50)
	if z.CDF(-1) != 0 {
		t.Fatal("CDF(-1) != 0")
	}
	if z.CDF(100) != 1 {
		t.Fatal("CDF beyond range != 1")
	}
	prev := 0.0
	for i := 0; i < z.N(); i++ {
		c := z.CDF(i)
		if c < prev {
			t.Fatalf("CDF not monotone at %d", i)
		}
		if math.Abs((c-prev)-z.Prob(i)) > 1e-12 {
			t.Fatalf("CDF/Prob inconsistent at %d", i)
		}
		prev = c
	}
	if math.Abs(prev-1) > 1e-9 {
		t.Fatalf("CDF(last) = %v", prev)
	}
}

func TestZipfProbOutOfRange(t *testing.T) {
	z := NewZipf(NewSource(1), 1.0, 10)
	if z.Prob(-1) != 0 || z.Prob(10) != 0 {
		t.Fatal("out-of-range Prob should be 0")
	}
	if z.N() != 10 {
		t.Fatalf("N = %d", z.N())
	}
}

func TestNewZipfPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero n":       func() { NewZipf(NewSource(1), 1, 0) },
		"negative exp": func() { NewZipf(NewSource(1), -1, 5) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		})
	}
}

package par

import (
	"runtime"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 5, 7, 64, 1001} {
			hits := make([]int, n)
			For(n, func(lo, hi int) {
				if lo >= hi {
					t.Errorf("procs=%d n=%d: empty range [%d, %d)", procs, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					hits[i]++
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("procs=%d n=%d: index %d visited %d times", procs, n, i, h)
				}
			}
		}
	}
}

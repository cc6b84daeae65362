// Package par spreads index-range work over the machine's cores. The
// worker count is always GOMAXPROCS: callers choose what runs in
// parallel, never how wide, so no build path grows a tuning knob.
package par

import (
	"runtime"
	"sync"
)

// For splits [0, n) into at most GOMAXPROCS contiguous ranges and calls
// fn(lo, hi) for each, concurrently, returning when every call has
// returned. With a single range fn runs on the calling goroutine. fn
// must only write state owned by its range.
func For(n int, fn func(lo, hi int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, min(lo+chunk, n))
	}
	wg.Wait()
}

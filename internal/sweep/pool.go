package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(0..n-1) across at most par worker goroutines and
// returns the lowest-index error among the tasks that ran. It is the
// one local worker pool: a Runner's store peel and local fills, the
// experiment drivers' fan-out and the daemon's batch searches all run
// on it. par <= 0 means GOMAXPROCS; at par 1 (or n 1) the tasks run
// inline, in index order, on the caller's goroutine. The first failure
// stops tasks that have not started (in-flight ones finish), so a bad
// point does not burn the rest of a large sweep before the error
// surfaces. fn communicates through its captures, indexed by i.
//
//daelint:concurrent-callback
//daelint:ctx-root workers drain a closed channel of at most n indices; there is no caller to cancel for
func ForEach(par, n int, fn func(i int) error) error {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0) //daelint:nondeterministic-ok worker-pool width only; tasks write results indexed by i and the lowest-index error wins
	}
	if par > n {
		par = n
	}
	if par <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var failed atomic.Bool
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if failed.Load() {
					continue
				}
				if errs[i] = fn(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

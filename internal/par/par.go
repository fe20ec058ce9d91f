// Package par provides the pipeline's deterministic fan-out helper: a
// bounded worker pool whose results merge in input order, so a parallel
// run is byte-for-byte indistinguishable from a serial one.
//
// Each runs one task per index on a claiming pool (good when task costs
// are uneven, e.g. whole-binary rewrites); results are written to
// per-index slots and the first error *by index* is returned, matching
// what a serial loop would have reported. Workers picks the pool size.
// Each spawns no goroutines when one worker suffices, so the serial path
// stays allocation-free.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers clamps a requested worker count to [1, n]; requested <= 0
// selects runtime.GOMAXPROCS(0) (the -j default).
func Workers(requested, n int) int {
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	if requested > n {
		requested = n
	}
	if requested < 1 {
		requested = 1
	}
	return requested
}

// Each runs fn(i) for every i in [0, n) on a pool of `workers`
// goroutines claiming indices in order. Once any task fails, unclaimed
// indices are skipped (in-flight tasks finish); the error returned is
// the one with the lowest index, which — for deterministic tasks — is
// the same error a serial loop would have stopped at. fn must write
// only per-index state (e.g. results[i]).
func Each(workers, n int, fn func(i int) error) error {
	workers = Workers(workers, n)
	if n == 0 {
		return nil
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next atomic.Int64
		// stop is the lowest failed index so far (n while none): a
		// claimed index at or past it is skipped, one below it still
		// runs, since it may be the error a serial loop reports.
		stop atomic.Int64
		wg   sync.WaitGroup

		mu       sync.Mutex
		firstErr error
	)
	stop.Store(int64(n))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= stop.Load() {
					return
				}
				if err := fn(int(i)); err != nil {
					mu.Lock()
					if i < stop.Load() {
						stop.Store(i)
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

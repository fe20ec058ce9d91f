// Package par provides the pipeline's deterministic fan-out helpers:
// bounded worker pools whose results merge in input order, so a parallel
// run is byte-for-byte indistinguishable from a serial one.
//
// Two shapes cover every use in the rewriter:
//
//   - Chunks splits an index range into at most `workers` contiguous
//     chunks and runs them concurrently. Callers collect per-chunk
//     output into a slice indexed by chunk number and concatenate in
//     chunk order, which reproduces the serial iteration order exactly.
//   - Each runs one task per index on a claiming pool (good when task
//     costs are uneven, e.g. whole-binary rewrites); results are written
//     to per-index slots and the first error *by index* is returned,
//     matching what a serial loop would have reported.
//
// Neither helper spawns goroutines when one worker suffices, so the
// serial path stays allocation-free.
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

// ScaledWorkers picks a worker count for n items of roughly uniform,
// small cost: one worker per minPerWorker items, capped at GOMAXPROCS.
// It returns 1 when the work is too small to be worth goroutines.
func ScaledWorkers(n, minPerWorker int) int {
	if minPerWorker < 1 {
		minPerWorker = 1
	}
	// Clamp before Workers, which reads a request of 0 as "GOMAXPROCS".
	return Workers(max(n/minPerWorker, 1), n)
}

// Chunks partitions [0, n) into at most `workers` contiguous chunks and
// calls fn(chunk, lo, hi) for each, concurrently when workers > 1.
// Chunk indices are dense, start at 0, and ascend with lo, so output
// gathered per chunk and concatenated in chunk order equals the serial
// order. fn must only write state owned by its own chunk. Returns the
// number of chunks used (always <= max(workers, 1)).
func Chunks(workers, n int, fn func(chunk, lo, hi int)) int {
	workers = Workers(workers, n)
	if n == 0 {
		return 0
	}
	if workers == 1 {
		fn(0, 0, n)
		return 1
	}
	size := (n + workers - 1) / workers
	chunks := (n + size - 1) / size
	var wg sync.WaitGroup
	wg.Add(chunks)
	for c := 0; c < chunks; c++ {
		lo := c * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		go func(c, lo, hi int) {
			defer wg.Done()
			fn(c, lo, hi)
		}(c, lo, hi)
	}
	wg.Wait()
	return chunks
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
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup

		mu       sync.Mutex
		firstIdx = n
		firstErr error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || failed.Load() {
					return
				}
				if err := fn(i); err != nil {
					failed.Store(true)
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

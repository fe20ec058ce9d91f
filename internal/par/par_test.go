package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(4, 2); got != 2 {
		t.Errorf("Workers(4,2) = %d, want 2", got)
	}
	if got := Workers(1, 100); got != 1 {
		t.Errorf("Workers(1,100) = %d, want 1", got)
	}
	if got := Workers(0, 100); got < 1 {
		t.Errorf("Workers(0,100) = %d, want >= 1", got)
	}
	if got := Workers(-3, 0); got != 1 {
		t.Errorf("Workers(-3,0) = %d, want 1", got)
	}
}

func TestScaledWorkers(t *testing.T) {
	// Pin a multi-CPU budget so the too-small case cannot pass by
	// accident on a one-CPU host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	if got := ScaledWorkers(10, 100); got != 1 {
		t.Errorf("ScaledWorkers(10,100) = %d, want 1 (too small to shard)", got)
	}
	if got := ScaledWorkers(1<<20, 1024); got <= 1 {
		t.Errorf("ScaledWorkers(1<<20,1024) = %d, want > 1", got)
	}
	if got := ScaledWorkers(1000, 1); got < 1 {
		t.Errorf("ScaledWorkers(1000,1) = %d, want >= 1", got)
	}
}

// TestChunksCoverAndOrder checks chunks are dense, contiguous,
// non-overlapping, and ascend with their index.
func TestChunksCoverAndOrder(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000} {
		for _, w := range []int{1, 2, 3, 8, 200} {
			bounds := make([][2]int, 256)
			chunks := Chunks(w, n, func(c, lo, hi int) {
				bounds[c] = [2]int{lo, hi}
			})
			if n == 0 {
				if chunks != 0 {
					t.Fatalf("n=0: chunks = %d", chunks)
				}
				continue
			}
			pos := 0
			for c := 0; c < chunks; c++ {
				lo, hi := bounds[c][0], bounds[c][1]
				if lo != pos || hi <= lo {
					t.Fatalf("n=%d w=%d: chunk %d = [%d,%d), want lo=%d", n, w, c, lo, hi, pos)
				}
				pos = hi
			}
			if pos != n {
				t.Fatalf("n=%d w=%d: chunks cover %d, want %d", n, w, pos, n)
			}
		}
	}
}

// TestChunksConcatDeterministic gathers per-chunk output and verifies
// concatenation in chunk order reproduces the serial order.
func TestChunksConcatDeterministic(t *testing.T) {
	const n = 1013
	buckets := make([][]int, 8)
	chunks := Chunks(8, n, func(c, lo, hi int) {
		for i := lo; i < hi; i++ {
			if i%3 == 0 {
				buckets[c] = append(buckets[c], i)
			}
		}
	})
	var got []int
	for c := 0; c < chunks; c++ {
		got = append(got, buckets[c]...)
	}
	var want []int
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			want = append(want, i)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("item %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestEachRunsAll(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		const n = 100
		var ran [n]atomic.Int32
		if err := Each(w, n, func(i int) error {
			ran[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range ran {
			if ran[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", w, i, ran[i].Load())
			}
		}
	}
}

// TestEachFirstErrorByIndex: the reported error must be the
// lowest-index failure, matching a serial loop over deterministic
// tasks.
func TestEachFirstErrorByIndex(t *testing.T) {
	wantErr := errors.New("boom-7")
	for _, w := range []int{1, 2, 8} {
		err := Each(w, 100, func(i int) error {
			if i == 7 {
				return wantErr
			}
			if i == 23 || i == 91 {
				return fmt.Errorf("boom-%d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "boom-7" {
			t.Fatalf("workers=%d: err = %v, want boom-7", w, err)
		}
	}
}

// TestEachStopsClaimingAfterFailure: when every task errors, only the
// tasks already claimed before the first failure may still run — the
// pool must not churn through the rest of a large input.
func TestEachStopsClaimingAfterFailure(t *testing.T) {
	const workers = 4
	var ran atomic.Int32
	err := Each(workers, 10_000, func(i int) error {
		ran.Add(1)
		return fmt.Errorf("boom-%d", i)
	})
	if err == nil || err.Error() != "boom-0" {
		t.Fatalf("err = %v, want boom-0 (index 0 is always claimed first)", err)
	}
	// Each worker can have at most one task claimed-but-unchecked when
	// the failure flag is raised.
	if n := ran.Load(); n > 2*workers {
		t.Errorf("early stop failed: %d tasks ran, want <= %d", n, 2*workers)
	}
}

package par

import (
	"errors"
	"fmt"
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
	// the first failure is recorded.
	if n := ran.Load(); n > 2*workers {
		t.Errorf("early stop failed: %d tasks ran, want <= %d", n, 2*workers)
	}
}

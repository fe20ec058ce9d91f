package obs

// Stress tests for the documented concurrency contract: metrics may be
// updated from any goroutine; fan-out phases use StartDetached spans
// ended by workers; per-rewrite traces fold into a
// shared Agg concurrently. Run with -race (the Makefile's race target
// does) — these tests exist mostly to give the detector something to
// chew on.

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"
)

// TestConcurrentWorkerSpansAndMetrics exercises one shared trace the
// way a fan-out phase does: the coordinator opens detached spans in
// deterministic order, workers end them while hammering the metric families from every goroutine.
func TestConcurrentWorkerSpansAndMetrics(t *testing.T) {
	const workers, iters = 8, 200
	tr := New()
	root := tr.Start("phase")

	spans := make([]*Span, workers)
	for w := range spans {
		spans[w] = tr.StartDetached(fmt.Sprintf("worker-%d", w))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tr.Add("stress.count", 1)
				tr.SetGauge("stress.gauge", int64(i))
				tr.Observe("stress.hist", int64(i))
			}
			spans[w].End()
		}(w)
	}
	wg.Wait()
	tr.Record("stress.record", time.Microsecond, workers)
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	snap := tr.Snapshot()
	if got := snap.Metrics.Counters["stress.count"]; got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if len(snap.Spans) != 1 {
		t.Fatalf("roots = %d, want 1", len(snap.Spans))
	}
	phase := snap.Spans[0]
	// workers detached spans + the record; all attached under the phase,
	// in the coordinator's creation order.
	if len(phase.Children) != workers+1 {
		t.Fatalf("phase children = %d, want %d", len(phase.Children), workers+1)
	}
	for w := 0; w < workers; w++ {
		s := phase.Children[w]
		if want := fmt.Sprintf("worker-%d", w); s.Name != want {
			t.Fatalf("child %d = %q, want %q (creation order lost)", w, s.Name, want)
		}
		if !s.ended || s.Wall <= 0 {
			t.Fatalf("worker span %q not finalized", s.Name)
		}
		if s.Depth != 1 {
			t.Fatalf("worker span depth = %d, want 1", s.Depth)
		}
	}
}

// TestConcurrentAggFolding folds per-worker traces into one shared Agg
// from many goroutines, the cgc-eval -j -phase-times pattern.
func TestConcurrentAggFolding(t *testing.T) {
	const workers = 16
	agg := NewAgg()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := New()
			sp := tr.Start("rewrite")
			tr.Add("work", int64(w))
			inner := tr.Start("step")
			inner.End()
			sp.End()
			tr.Close()
			agg.AddTrace(tr)
		}(w)
	}
	wg.Wait()
	if agg.Runs() != workers {
		t.Fatalf("runs = %d, want %d", agg.Runs(), workers)
	}
	want := int64(workers * (workers - 1) / 2)
	if got := agg.Metrics().Counters["work"]; got != want {
		t.Fatalf("merged counter = %d, want %d", got, want)
	}
	if err := agg.WriteTable(io.Discard); err != nil {
		t.Fatal(err)
	}
}

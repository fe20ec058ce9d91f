package obs

import (
	"fmt"
	"testing"
	"time"
)

func TestRegistryFamiliesAndSeries(t *testing.T) {
	r := NewRegistry()
	total := r.Counter("serve.request.total", "requests by outcome", "outcome")
	hit := total.With("hit")
	miss := total.With("miss")
	hit.Add(3)
	miss.Add(1)
	hit.Add(2)
	if hit.Value() != 5 || miss.Value() != 1 {
		t.Fatalf("counter values = %d/%d, want 5/1", hit.Value(), miss.Value())
	}
	// Re-resolving the same labels returns the same series.
	if total.With("hit").Value() != 5 {
		t.Fatal("With(hit) resolved a fresh series")
	}
	// Re-registering the same family returns it unchanged.
	if r.Counter("serve.request.total", "requests by outcome", "outcome").With("hit").Value() != 5 {
		t.Fatal("re-registration lost the series")
	}

	g := r.Gauge("serve.queue.depth", "waiting requests").With()
	g.Set(7)
	g.Set(4)
	if g.Value() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Value())
	}

	h := r.Window("serve.input.bytes", "input sizes", time.Minute, "kind").With("zelf")
	for _, v := range []int64{1, 2, 4, 8, 1024} {
		h.Observe(v)
	}
	if q := h.Quantile(0.5); q < 2 || q > 4 {
		t.Fatalf("window p50 = %d, want in [2,4]", q)
	}

	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("families = %d, want 3", len(snap))
	}
	// Registration order preserved.
	if snap[0].Name != "serve.request.total" || snap[1].Name != "serve.queue.depth" || snap[2].Name != "serve.input.bytes" {
		t.Fatalf("family order = %s,%s,%s", snap[0].Name, snap[1].Name, snap[2].Name)
	}
	if snap[0].Kind != "counter" || len(snap[0].Series) != 2 {
		t.Fatalf("counter family snap = %+v", snap[0])
	}
	if snap[0].Series[0].Labels[0] != "hit" || snap[0].Series[0].Value != 5 {
		t.Fatalf("hit series snap = %+v", snap[0].Series[0])
	}
	if snap[2].Series[0].Count != 5 || snap[2].Series[0].Sum != 1039 {
		t.Fatalf("window series snap = %+v", snap[2].Series[0])
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.b", "", "l")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("a.b", "", "l")
}

// TestRegistryFuncFamilies: a function family reads its value from fn
// at every snapshot, in registration order beside ordinary families,
// and cannot be registered twice.
func TestRegistryFuncFamilies(t *testing.T) {
	r := NewRegistry()
	var runs, depth int64
	r.CounterFunc("serve.pipeline.runs", "pipeline executions", func() int64 { return runs })
	r.Counter("serve.request.total", "", "outcome").With("hit").Add(1)
	r.GaugeFunc("serve.queue.depth", "waiting requests", func() int64 { return depth })
	runs, depth = 3, 2
	snap := r.Snapshot()
	if len(snap) != 3 || snap[0].Kind != "counter" || snap[2].Kind != "gauge" {
		t.Fatalf("families = %+v", snap)
	}
	if len(snap[0].Series) != 1 || snap[0].Series[0].Value != 3 || snap[0].Help != "pipeline executions" {
		t.Fatalf("counter func family = %+v, want one series of 3", snap[0])
	}
	runs, depth = 5, 0
	snap = r.Snapshot()
	if snap[0].Series[0].Value != 5 || snap[2].Series[0].Value != 0 {
		t.Fatalf("values after change = %d/%d, want 5/0", snap[0].Series[0].Value, snap[2].Series[0].Value)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a function family did not panic")
		}
	}()
	r.CounterFunc("serve.pipeline.runs", "", func() int64 { return 0 })
}

func TestRegistryLabelMismatchReturnsNil(t *testing.T) {
	r := NewRegistry()
	v := r.Counter("a.b", "", "outcome")
	if c := v.With("x", "y"); c != nil {
		t.Fatal("wrong label arity resolved a series")
	}
	if c := v.With(); c != nil {
		t.Fatal("missing label value resolved a series")
	}
	// The nil handle is a safe no-op.
	v.With().Add(1)
}

func TestRegistryCardinalityCap(t *testing.T) {
	r := NewRegistry()
	v := r.Counter("a.b", "", "id")
	for i := 0; i < MaxSeries+10; i++ {
		v.With(fmt.Sprintf("id-%d", i)).Add(1)
	}
	snap := r.Snapshot()[0]
	if len(snap.Series) != MaxSeries {
		t.Fatalf("series = %d, want capped at %d", len(snap.Series), MaxSeries)
	}
	if snap.Dropped != 10 {
		t.Fatalf("dropped = %d, want 10", snap.Dropped)
	}
	// Existing series keep resolving after the cap.
	if v.With("id-0").Value() != 1 {
		t.Fatal("pre-cap series lost")
	}
}

// TestNilRegistryZeroAlloc locks in the disabled-telemetry contract:
// the whole chain — registration, With, and the per-event methods —
// must be allocation-free on a nil registry, mirroring the nil-Trace
// rule.
func TestNilRegistryZeroAlloc(t *testing.T) {
	var r *Registry
	cv := r.Counter("x.y", "", "outcome")
	gv := r.Gauge("x.z", "")
	wv := r.Window("x.w", "", time.Minute, "k")
	r.CounterFunc("x.f", "", func() int64 { return 1 })
	r.GaugeFunc("x.g", "", func() int64 { return 1 })
	c := cv.With("hit")
	g := gv.With()
	w := wv.With("a")
	allocs := testing.AllocsPerRun(100, func() {
		c.Add(1)
		g.Set(2)
		w.Observe(4)
		cv.With("miss").Add(1)
		if r.Snapshot() != nil {
			t.Fatal("nil registry snapshot not nil")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled registry allocated %.1f objects/op, want 0", allocs)
	}
}

func TestWindowRotation(t *testing.T) {
	r := NewRegistry()
	now := time.Unix(1_000_000, 0)
	r.now = func() time.Time { return now }
	w := r.Window("w.lat", "latency", 8*time.Minute).With() // 1-minute slices

	for i := 0; i < 10; i++ {
		w.Observe(1000) // old observations: large values
	}
	if q := w.Quantile(0.5); q < 512 || q > 1023 {
		t.Fatalf("p50 with only old values = %d, want ~1000's bucket [512,1023]", q)
	}

	// Advance beyond the window: old slices age out of quantiles.
	now = now.Add(9 * time.Minute)
	for i := 0; i < 10; i++ {
		w.Observe(4)
	}
	if q := w.Quantile(0.99); q > 7 {
		t.Fatalf("p99 after rotation = %d, want <= 7 (stale slices leaked in)", q)
	}

	// Lifetime totals survive rotation (exposition _sum/_count).
	snap := r.Snapshot()[0].Series[0]
	if snap.Count != 20 || snap.Sum != 10040 {
		t.Fatalf("lifetime count/sum = %d/%d, want 20/10040", snap.Count, snap.Sum)
	}
	if snap.P95 > 7 {
		t.Fatalf("snapshot p95 = %d, want windowed (<= 7)", snap.P95)
	}

	// A partial advance keeps recent slices: observations 2 minutes ago
	// still count inside an 8-minute window.
	now = now.Add(2 * time.Minute)
	if q := w.Quantile(0.5); q < 4 || q > 7 {
		t.Fatalf("p50 two minutes later = %d, want [4,7]", q)
	}
}

func TestHistQuantileDeterministic(t *testing.T) {
	h := &Hist{}
	// 100 observations of 10 (bucket [8,15]).
	for i := 0; i < 100; i++ {
		h.Observe(10)
	}
	// All quantiles interpolate inside [8, 15].
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 1} {
		got := h.Quantile(q)
		if got < 8 || got > 15 {
			t.Fatalf("Quantile(%v) = %d, want within [8,15]", q, got)
		}
	}
	if h.Quantile(0.01) > h.Quantile(0.99) {
		t.Fatal("quantiles not monotone")
	}

	h2 := &Hist{}
	h2.Observe(0)
	h2.Observe(1)
	if h2.Quantile(0.25) != 0 || h2.Quantile(1) != 1 {
		t.Fatalf("exact buckets: p25=%d p100=%d, want 0/1", h2.Quantile(0.25), h2.Quantile(1))
	}
	var empty Hist
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
	var nilH *Hist
	if nilH.Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile != 0")
	}
}

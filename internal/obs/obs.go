// Package obs is the rewriter's zero-dependency observability layer:
// hierarchical phase spans (wall clock plus runtime.ReadMemStats deltas,
// the in-process analogue of the paper's per-stage time and MaxRSS
// columns), typed counters/gauges/histograms that subsume the end-of-run
// Stats struct, and pluggable sinks — a JSON-lines trace writer and a
// human-readable phase-time table.
//
// A nil *Trace disables everything: every method is nil-safe and the
// disabled path performs no allocations (guarded by the package tests
// and BenchmarkRewriteNoTrace), so instrumentation stays in the pipeline
// unconditionally.
//
// Typical use:
//
//	tr := obs.New(obs.NewTable(os.Stdout))
//	out, rep, err := zipr.Rewrite(in, zipr.Config{Trace: tr})
//	tr.Close()
package obs

import (
	"runtime"
	"sync"
	"time"
)

// Trace collects spans and metrics for one or more pipeline runs. The
// zero value is not usable; construct with New. All methods are safe to
// call on a nil receiver (tracing disabled) and safe for concurrent use:
// counters, gauges and histograms (Add, SetGauge, Observe) may be
// updated from any goroutine at any time.
//
// Spans need one rule because they form a single stack: Start/End pair
// on the goroutine that owns the current phase. When a phase fans work
// out to worker goroutines, the coordinator creates one detached span
// per worker with StartDetached (in a deterministic order, attached
// under the currently open phase but never pushed on the stack), hands
// each to its worker, and the worker calls End without ever touching
// the shared stack.
// Workers must End every detached span before the phase's own End.
// Concurrent pipelines (whole-binary fan-out) should instead use one
// Trace each and merge with an Agg, which is also safe to share.
//
// Note that span memory deltas diff process-wide runtime.MemStats, so
// spans running concurrently attribute each other's allocations to
// themselves; wall clock remains exact per span.
type Trace struct {
	mu    sync.Mutex
	begun time.Time
	sinks []Sink
	roots []*Span
	open  []*Span // stack of spans started but not yet ended
	met   *Metrics
}

// New creates a Trace emitting to the given sinks on Close. A Trace
// with no sinks still records spans and metrics for Snapshot.
func New(sinks ...Sink) *Trace {
	return &Trace{begun: time.Now(), sinks: sinks, met: NewMetrics()}
}

// Enabled reports whether the trace records anything. Use it to guard
// instrumentation whose argument construction itself costs (for
// example counter names built with string concatenation).
func (t *Trace) Enabled() bool { return t != nil }

// Span is one measured phase: a node in the trace tree with wall-clock
// and heap-accounting deltas. Fields are final once End (or Close) has
// run; Count is 1 for ordinary spans and the occurrence count for
// aggregate records (see Record).
type Span struct {
	Name     string
	Depth    int
	Count    int64
	Start    time.Duration // offset from trace creation
	Wall     time.Duration
	Allocs   uint64 // heap objects allocated during the span
	Bytes    uint64 // heap bytes allocated during the span
	HeapLive int64  // live-heap growth across the span (MaxRSS analogue)
	Children []*Span

	t        *Trace
	started  time.Time
	m0       memSample
	ended    bool
	detached bool // not on the open stack; ended individually
}

// memSample is the slice of runtime.MemStats the spans diff.
type memSample struct {
	mallocs    uint64
	totalAlloc uint64
	heapAlloc  uint64
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{mallocs: ms.Mallocs, totalAlloc: ms.TotalAlloc, heapAlloc: ms.HeapAlloc}
}

// Start opens a span as a child of the innermost open span (or as a new
// root). Returns nil when the trace is disabled; Span.End is nil-safe.
func (t *Trace) Start(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Span{Name: name, Count: 1, t: t, started: time.Now(), m0: readMem()}
	s.Start = s.started.Sub(t.begun)
	t.attachLocked(s)
	t.open = append(t.open, s)
	return s
}

// StartDetached opens a span attached under the innermost open span —
// like Start — but never pushed onto the open stack, so later Start
// calls (including other detached spans) attach as its siblings, not
// its children. This is the worker-goroutine pattern: the coordinator
// creates the spans in a deterministic order, each worker ends its own,
// and no worker's span can accidentally nest under another's. Returns
// nil when the trace is disabled.
func (t *Trace) StartDetached(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Span{Name: name, Count: 1, t: t, started: time.Now(), m0: readMem(), detached: true}
	s.Start = s.started.Sub(t.begun)
	t.attachLocked(s)
	return s
}

// attachLocked links s under the innermost open span.
func (t *Trace) attachLocked(s *Span) {
	if n := len(t.open); n > 0 {
		p := t.open[n-1]
		s.Depth = p.Depth + 1
		p.Children = append(p.Children, s)
	} else {
		t.roots = append(t.roots, s)
	}
}

// End closes the span, recording wall time and memory deltas. Ending a
// span also ends any of its children still open. Safe on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	now, m1 := time.Now(), readMem()
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.t.endLocked(s, now, m1)
}

// endLocked finalizes s and pops it (and any nested open spans) off the
// stack.
func (t *Trace) endLocked(s *Span, now time.Time, m1 memSample) {
	if s.ended {
		return
	}
	if s.detached {
		// Detached spans live off the stack: finalize just this one.
		s.Wall = now.Sub(s.started)
		s.Allocs = m1.mallocs - s.m0.mallocs
		s.Bytes = m1.totalAlloc - s.m0.totalAlloc
		s.HeapLive = int64(m1.heapAlloc) - int64(s.m0.heapAlloc)
		s.ended = true
		return
	}
	idx := -1
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == s {
			idx = i
			break
		}
	}
	if idx < 0 {
		return // already popped by an enclosing End
	}
	for i := len(t.open) - 1; i >= idx; i-- {
		sp := t.open[i]
		sp.Wall = now.Sub(sp.started)
		sp.Allocs = m1.mallocs - sp.m0.mallocs
		sp.Bytes = m1.totalAlloc - sp.m0.totalAlloc
		sp.HeapLive = int64(m1.heapAlloc) - int64(sp.m0.heapAlloc)
		sp.ended = true
	}
	t.open = t.open[:idx]
}

// Record attaches a pre-measured aggregate span — the summed cost of
// count occurrences of a sub-phase too fine-grained for individual
// spans (for example one chain allocation) — as a child of the
// innermost open span. Unlike Start, it never samples memory stats.
// Records with count == 0 are kept so phase tables list every
// sub-phase the pipeline has, even when a run never exercised it.
func (t *Trace) Record(name string, wall time.Duration, count int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Span{Name: name, Count: int64(count), Wall: wall, ended: true}
	if off := time.Since(t.begun) - wall; off > 0 {
		s.Start = off
	}
	t.attachLocked(s)
}

// Add increments a named counter.
func (t *Trace) Add(name string, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.met.Counters[name] += delta
	t.mu.Unlock()
}

// SetGauge records the current value of a named gauge.
func (t *Trace) SetGauge(name string, v int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.met.Gauges[name] = v
	t.mu.Unlock()
}

// Observe adds a value to a named power-of-two-bucket histogram.
func (t *Trace) Observe(name string, v int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	h := t.met.Hists[name]
	if h == nil {
		h = &Hist{}
		t.met.Hists[name] = h
	}
	h.Observe(v)
	t.mu.Unlock()
}

// Counter returns the current value of a named counter — 0 when the
// counter has never been bumped or the trace is disabled. Safe for
// concurrent use; intended for tests and serving-layer introspection
// that need one value without snapshotting the whole trace.
func (t *Trace) Counter(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.met.Counters[name]
}

// Gauge returns the current value of a named gauge — 0 when the gauge
// has never been set or the trace is disabled. Safe for concurrent use.
func (t *Trace) Gauge(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.met.Gauges[name]
}

// Snapshot captures the trace's current spans and metrics. The returned
// structures are shared, not copied: treat them as read-only, and
// prefer snapshotting after Close (or after all spans have ended).
func (t *Trace) Snapshot() *Snapshot {
	if t == nil {
		return &Snapshot{Metrics: NewMetrics()}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return &Snapshot{Spans: t.roots, Metrics: t.met}
}

// Close ends any spans left open (error paths abandon them) and emits
// the final snapshot to every sink, returning the first sink error.
// Safe on nil, and safe to call more than once (sinks re-emit).
func (t *Trace) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	if len(t.open) > 0 {
		t.endLocked(t.open[0], time.Now(), readMem())
	}
	snap := &Snapshot{Spans: t.roots, Metrics: t.met}
	sinks := t.sinks
	t.mu.Unlock()
	var first error
	for _, s := range sinks {
		if err := s.Emit(snap); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Snapshot is the immutable view handed to sinks: the span forest in
// start order plus the metric families.
type Snapshot struct {
	Spans   []*Span
	Metrics *Metrics
}

// Sink consumes a finished trace. Emit is called from Trace.Close.
type Sink interface {
	Emit(snap *Snapshot) error
}

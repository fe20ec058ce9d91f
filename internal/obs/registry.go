package obs

import (
	"fmt"
	"sync"
	"time"
)

// Registry is the service-lifetime labeled metric store, the
// continuous-telemetry counterpart of the per-run Trace: where a Trace
// records one pipeline run and dumps on Close, a Registry lives as long
// as the process and is scraped (Prometheus text exposition via
// WriteProm, JSON via Snapshot) while traffic flows through it.
//
// Metrics are organized as families — a name, a help string and a
// fixed, small set of label names — holding one series per distinct
// label-value tuple:
//
//	reg := obs.NewRegistry()
//	total := reg.Counter("serve.request.total", "requests by outcome", "outcome")
//	hit := total.With("hit") // resolve once, at wiring time
//	...
//	hit.Add(1) // hot path: no lookups, no allocation
//
// Family names are lowercase dotted ("serve.request.latency"); the
// exposition layer maps them to zipr_-prefixed snake_case. Label
// cardinality is bounded: a family holds at most MaxSeries series, and
// With calls beyond the cap return nil (a safe no-op handle) while the
// family counts the drop — unbounded label values (user input, raw
// addresses) must never be used as labels.
//
// The nil contract matches Trace: every method on a nil *Registry, nil
// family vec or nil series handle is a no-op, and the disabled path
// performs no allocations, so instrumentation stays compiled in
// unconditionally.
//
// All methods are safe for concurrent use from any goroutine.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
	now      func() time.Time // injectable clock for window tests
}

// MaxSeries bounds the label cardinality of one family: With calls
// that would create a series beyond this cap are dropped (nil handle)
// and counted in the family's Dropped tally.
const MaxSeries = 64

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family), now: time.Now}
}

// familyKind discriminates the three metric shapes.
type familyKind uint8

const (
	kindCounter familyKind = iota
	kindGauge
	kindWindow
)

func (k familyKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "window"
	}
}

// family is one named metric family: fixed label names, one series per
// label-value tuple.
type family struct {
	name   string
	help   string
	kind   familyKind
	labels []string
	window time.Duration // window kind only
	now    func() time.Time
	fn     func() int64 // function family only: its one series' value

	mu      sync.Mutex
	series  map[string]*series
	order   []string
	dropped int64
}

// series is one labeled member of a family. One struct backs all three
// kinds; the typed handles expose only the meaningful operations.
type series struct {
	labels []string

	mu  sync.Mutex
	val int64   // counter, gauge
	win winHist // window
}

// register returns the family for name, creating it on first use. A
// re-registration must agree on kind and label names, and a function
// family (fn != nil) cannot be registered twice: either is a wiring bug
// and panics.
func (r *Registry) register(name, help string, kind familyKind, window time.Duration, labels []string, fn func() int64) *family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.families[name]; f != nil {
		if f.kind != kind || !equalStrings(f.labels, labels) || f.fn != nil || fn != nil {
			panic(fmt.Sprintf("obs: metric family %q re-registered as %s%v, was %s%v",
				name, kind, labels, f.kind, f.labels))
		}
		return f
	}
	f := &family{
		name:   name,
		help:   help,
		kind:   kind,
		labels: append([]string(nil), labels...),
		window: window,
		now:    r.now,
		fn:     fn,
		series: make(map[string]*series),
	}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// with resolves (creating on first use) the series for the given label
// values. Returns nil — a no-op handle — when the value count does not
// match the family's label names or the series cap is hit.
func (f *family) with(values []string) *series {
	if f == nil {
		return nil
	}
	if len(values) != len(f.labels) {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	key := joinLabels(values)
	if s := f.series[key]; s != nil {
		return s
	}
	if len(f.series) >= MaxSeries {
		f.dropped++
		return nil
	}
	s := &series{labels: append([]string(nil), values...)}
	if f.kind == kindWindow {
		s.win.init(f.window)
	}
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// joinLabels builds the series map key; \x1f cannot appear in sane
// label values and keeps distinct tuples distinct.
func joinLabels(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	n := len(values) - 1
	for _, v := range values {
		n += len(v)
	}
	b := make([]byte, 0, n)
	for i, v := range values {
		if i > 0 {
			b = append(b, '\x1f')
		}
		b = append(b, v...)
	}
	return string(b)
}

// ---------------------------------------------------------------- vecs

// CounterVec is a family of monotonically increasing counters.
type CounterVec struct{ f *family }

// Counter registers (or returns) the counter family called name with
// the given label names. Nil-safe; see Registry for naming rules.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.register(name, help, kindCounter, 0, labels, nil)}
}

// With resolves the series for the given label values; resolve once at
// wiring time for hot paths. Nil-safe (returns a no-op handle).
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	s := v.f.with(values)
	if s == nil {
		return nil
	}
	return &Counter{s: s}
}

// Counter is one labeled counter series.
type Counter struct{ s *series }

// Add increments the counter. Nil-safe.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.s.mu.Lock()
	c.s.val += delta
	c.s.mu.Unlock()
}

// Value returns the current count. Nil-safe (0).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.s.val
}

// GaugeVec is a family of set-to-current-value gauges.
type GaugeVec struct{ f *family }

// Gauge registers (or returns) the gauge family called name.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.register(name, help, kindGauge, 0, labels, nil)}
}

// With resolves the series for the given label values. Nil-safe.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	s := v.f.with(values)
	if s == nil {
		return nil
	}
	return &Gauge{s: s}
}

// Gauge is one labeled gauge series.
type Gauge struct{ s *series }

// Set records the current value. Nil-safe.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.s.mu.Lock()
	g.s.val = v
	g.s.mu.Unlock()
}

// Value returns the last set value. Nil-safe (0).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	return g.s.val
}

// CounterFunc registers the unlabeled counter family called name whose
// value is fn's result, read at every Snapshot and WriteProm: for a
// count some other record already keeps, so the registry holds no copy
// of it. fn must not call back into the registry. Registering the name
// a second time panics. Nil-safe.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.register(name, help, kindCounter, 0, nil, fn).with(nil)
}

// GaugeFunc is CounterFunc for a gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.register(name, help, kindGauge, 0, nil, fn).with(nil)
}

// WindowVec is a family of time-windowed rolling histograms: lifetime
// totals for exposition plus p50/p95/p99 over the last window.
type WindowVec struct{ f *family }

// Window registers (or returns) the rolling-histogram family called
// name. window is the quantile horizon (how far back observations
// count); window <= 0 defaults to 5 minutes.
func (r *Registry) Window(name, help string, window time.Duration, labels ...string) *WindowVec {
	if r == nil {
		return nil
	}
	if window <= 0 {
		window = 5 * time.Minute
	}
	return &WindowVec{f: r.register(name, help, kindWindow, window, labels, nil)}
}

// With resolves the series for the given label values. Nil-safe.
func (v *WindowVec) With(values ...string) *WindowSeries {
	if v == nil {
		return nil
	}
	s := v.f.with(values)
	if s == nil {
		return nil
	}
	return &WindowSeries{s: s, now: v.f.now}
}

// WindowSeries is one labeled rolling-histogram series.
type WindowSeries struct {
	s   *series
	now func() time.Time
}

// Observe adds one value to the current time slice (and the lifetime
// totals). Nil-safe.
func (w *WindowSeries) Observe(v int64) {
	if w == nil {
		return
	}
	now := w.now()
	w.s.mu.Lock()
	w.s.win.observe(now, v)
	w.s.mu.Unlock()
}

// Quantile estimates the q-quantile over the rolling window. Nil-safe.
func (w *WindowSeries) Quantile(q float64) int64 {
	if w == nil {
		return 0
	}
	now := w.now()
	w.s.mu.Lock()
	defer w.s.mu.Unlock()
	merged := w.s.win.merged(now)
	return merged.Quantile(q)
}

// ---------------------------------------------------------------- snapshot

// read returns a function family's value (0 for any other family). It
// runs before the family's locks are taken, since fn may take its
// owner's.
func (f *family) read() int64 {
	if f.fn == nil {
		return 0
	}
	return f.fn()
}

// FamilySnap is the JSON-friendly snapshot of one metric family, the
// shape embedded in ziprd's /stats.
type FamilySnap struct {
	Name    string       `json:"name"`
	Kind    string       `json:"kind"`
	Help    string       `json:"help,omitempty"`
	Labels  []string     `json:"labels,omitempty"`
	Dropped int64        `json:"dropped,omitempty"`
	Series  []SeriesSnap `json:"series"`
}

// SeriesSnap is one series' snapshot. Value is set for counters and
// gauges; Count/Sum (lifetime) plus the quantile estimates (over the
// rolling window) for windows.
type SeriesSnap struct {
	Labels []string `json:"labels,omitempty"`
	Value  int64    `json:"value,omitempty"`
	Count  int64    `json:"count,omitempty"`
	Sum    int64    `json:"sum,omitempty"`
	P50    int64    `json:"p50,omitempty"`
	P95    int64    `json:"p95,omitempty"`
	P99    int64    `json:"p99,omitempty"`
}

// Snapshot captures every family in registration order, series in
// creation order. Nil-safe (nil).
func (r *Registry) Snapshot() []FamilySnap {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.families[name])
	}
	now := r.now()
	r.mu.Unlock()

	out := make([]FamilySnap, 0, len(fams))
	for _, f := range fams {
		out = append(out, f.snapshot(now))
	}
	return out
}

func (f *family) snapshot(now time.Time) FamilySnap {
	fv := f.read()
	f.mu.Lock()
	defer f.mu.Unlock()
	fs := FamilySnap{
		Name:    f.name,
		Kind:    f.kind.String(),
		Help:    f.help,
		Labels:  f.labels,
		Dropped: f.dropped,
		Series:  make([]SeriesSnap, 0, len(f.order)),
	}
	for _, key := range f.order {
		s := f.series[key]
		s.mu.Lock()
		ss := SeriesSnap{Labels: s.labels}
		switch f.kind {
		case kindCounter, kindGauge:
			ss.Value = s.val
			if f.fn != nil {
				ss.Value = fv
			}
		case kindWindow:
			ss.Count, ss.Sum = s.win.life.Count, s.win.life.Sum
			merged := s.win.merged(now)
			ss.P50 = merged.Quantile(0.50)
			ss.P95 = merged.Quantile(0.95)
			ss.P99 = merged.Quantile(0.99)
		}
		s.mu.Unlock()
		fs.Series = append(fs.Series, ss)
	}
	return fs
}

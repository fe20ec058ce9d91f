package serve

import (
	"time"

	"zipr/internal/obs"
)

// Request outcomes: the label set of the serve.request.* metric
// families and the Outcome field of RequestMeta. The set is fixed and
// small on purpose — outcome is the only label the serving layer puts
// on a metric, keeping family cardinality bounded.
const (
	OutcomeHit    = "hit"    // answered from the content-addressed cache
	OutcomeMiss   = "miss"   // full pipeline run
	OutcomeShared = "shared" // singleflight follower of a concurrent run
	OutcomeDelta  = "delta"  // answered by patching a placement-snapshot ancestor
	OutcomeBusy   = "busy"   // rejected or expired (zerr.ErrBusy class)
	OutcomeError  = "error"  // pipeline or input failure
)

// outcomes enumerates every label value; telemetry handles are
// resolved once per outcome at construction so the per-request path
// never does a label lookup.
var outcomes = [...]string{OutcomeHit, OutcomeMiss, OutcomeShared, OutcomeDelta, OutcomeBusy, OutcomeError}

// Cache tiers: the label set of serve.tier.latency and the Tier field
// of RequestMeta. A hit names the tier that answered (ram or disk);
// delta and pipeline classify the non-hit latency populations so each
// tier's rolling p95 is scrapeable on its own.
const (
	TierRAM      = "ram"      // in-memory LRU answered
	TierDisk     = "disk"     // disk tier answered (promoted into RAM)
	TierDelta    = "delta"    // placement-snapshot patch answered
	TierPipeline = "pipeline" // full pipeline run
)

// tiers enumerates the serve.tier.latency label values.
var tiers = [...]string{TierRAM, TierDisk, TierDelta, TierPipeline}

// tierOf maps a finished request onto its latency tier ("" for busy,
// shared and error requests, which have no tier population).
func tierOf(m RequestMeta) string {
	switch m.Outcome {
	case OutcomeHit:
		if m.Tier != "" {
			return m.Tier
		}
		return TierRAM
	case OutcomeDelta:
		return TierDelta
	case OutcomeMiss:
		return TierPipeline
	}
	return ""
}

// RequestMeta is the per-request telemetry record RewriteMeta returns:
// what happened and where the time went. Access logs and labeled
// metrics are derived from it.
type RequestMeta struct {
	// Key is the request's content address (input digest folded with
	// the resolved config fingerprint).
	Key Key
	// Outcome is one of the Outcome* constants.
	Outcome string
	// Tier names the cache tier that answered a hit (TierRAM or
	// TierDisk); empty for non-hit outcomes.
	Tier string
	// QueueWait is time spent waiting for a worker slot (0 when a
	// worker — or the cache — answered immediately).
	QueueWait time.Duration
	// Wall is the whole request's serve-side duration.
	Wall time.Duration
}

// telemetry holds the serving layer's pre-resolved per-request metric
// handles: the request populations Stats cannot express. Every handle
// is nil-safe, so a server without a Registry carries a zero telemetry
// struct and pays only nil checks. The families that repeat a Stats
// field hold no value of their own: they read it from Stats when
// scraped (see newTelemetry).
type telemetry struct {
	total     map[string]*obs.Counter      // serve.request.total{outcome}
	latency   map[string]*obs.WindowSeries // serve.request.latency{outcome}, µs
	queueWait *obs.WindowSeries            // serve.queue.wait, µs
	tier      map[string]*obs.WindowSeries // serve.tier.latency{tier}, µs
}

// newTelemetry registers the serving layer's metric families on reg
// (nil reg: every handle is a nil no-op). counts reads the server's
// Stats; it must not hold a lock a registry scrape waits on.
func newTelemetry(reg *obs.Registry, counts func() Stats) telemetry {
	t := telemetry{
		total:   make(map[string]*obs.Counter, len(outcomes)),
		latency: make(map[string]*obs.WindowSeries, len(outcomes)),
		tier:    make(map[string]*obs.WindowSeries, len(tiers)),
	}
	// stat registers a family (reg.CounterFunc or reg.GaugeFunc) that
	// reads one Stats value when scraped.
	stat := func(register func(name, help string, fn func() int64), name, help string, field func(*Stats) int64) {
		register(name, help, func() int64 {
			st := counts()
			return field(&st)
		})
	}
	totalVec := reg.Counter("serve.request.total", "requests by outcome", "outcome")
	latencyVec := reg.Window("serve.request.latency", "request wall time in microseconds by outcome", 5*time.Minute, "outcome")
	for _, o := range outcomes {
		t.total[o] = totalVec.With(o)
		t.latency[o] = latencyVec.With(o)
	}
	t.queueWait = reg.Window("serve.queue.wait", "admission queue wait in microseconds", 5*time.Minute).With()
	stat(reg.GaugeFunc, "serve.queue.depth", "requests waiting for a worker", func(st *Stats) int64 { return int64(st.QueueDepth) })
	stat(reg.GaugeFunc, "serve.cache.bytes", "cached output bytes", func(st *Stats) int64 { return st.CacheBytes })
	stat(reg.GaugeFunc, "serve.cache.entries", "cached rewrite entries", func(st *Stats) int64 { return int64(st.CacheEntries) })
	stat(reg.CounterFunc, "serve.cache.evictions", "cache entries evicted for the byte budget", func(st *Stats) int64 { return st.Evictions })
	stat(reg.CounterFunc, "serve.cache.corrupt", "cache hits that failed the digest check", func(st *Stats) int64 { return st.Corrupt })
	stat(reg.CounterFunc, "serve.pipeline.runs", "pipeline executions", func(st *Stats) int64 { return st.PipelineRuns })
	stat(reg.CounterFunc, "serve.delta.stale", "placement snapshots dropped for failed integrity checks", func(st *Stats) int64 { return st.DeltaStale })
	stat(reg.GaugeFunc, "serve.snapshot.bytes", "placement-snapshot store bytes", func(st *Stats) int64 { return st.SnapBytes })
	stat(reg.GaugeFunc, "serve.snapshot.entries", "stored placement snapshots", func(st *Stats) int64 { return int64(st.SnapEntries) })
	tierVec := reg.Window("serve.tier.latency", "request wall time in microseconds by answering tier", 5*time.Minute, "tier")
	for _, tr := range tiers {
		t.tier[tr] = tierVec.With(tr)
	}
	stat(reg.CounterFunc, "serve.disk.hits", "disk-tier reads served, digest-verified or from a spill not yet written", func(st *Stats) int64 { return st.DiskHits + st.DiskPendingHits })
	stat(reg.CounterFunc, "serve.disk.promotes", "disk-tier hits promoted into the in-memory cache", func(st *Stats) int64 { return st.DiskPromotes })
	stat(reg.CounterFunc, "serve.disk.corrupt", "disk-tier reads quarantined for a failed digest check", func(st *Stats) int64 { return st.DiskCorrupt })
	stat(reg.GaugeFunc, "serve.disk.bytes", "disk-tier stored bytes", func(st *Stats) int64 { return st.DiskBytes })
	stat(reg.GaugeFunc, "serve.disk.entries", "disk-tier index entries", func(st *Stats) int64 { return int64(st.DiskEntries) })
	return t
}

// observe records one finished request.
func (t *telemetry) observe(m RequestMeta) {
	t.total[m.Outcome].Add(1)
	t.latency[m.Outcome].Observe(m.Wall.Microseconds())
	if tier := tierOf(m); tier != "" {
		t.tier[tier].Observe(m.Wall.Microseconds())
	}
	if m.QueueWait > 0 {
		t.queueWait.Observe(m.QueueWait.Microseconds())
	}
}

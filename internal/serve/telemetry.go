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

// telemetry holds the serving layer's pre-resolved labeled metric
// handles. Every handle is nil-safe, so a server without a Registry
// carries a zero telemetry struct and pays only nil checks.
type telemetry struct {
	total      map[string]*obs.Counter      // serve.request.total{outcome}
	latency    map[string]*obs.WindowSeries // serve.request.latency{outcome}, µs
	queueWait  *obs.WindowSeries            // serve.queue.wait, µs
	queueDepth *obs.Gauge                   // serve.queue.depth
	cacheBytes *obs.Gauge                   // serve.cache.bytes
	cacheCount *obs.Gauge                   // serve.cache.entries
	evictions  *obs.Counter                 // serve.cache.evictions
	corrupt    *obs.Counter                 // serve.cache.corrupt
	runs       *obs.Counter                 // serve.pipeline.runs
	deltaStale *obs.Counter                 // serve.delta.stale
	snapBytes  *obs.Gauge                   // serve.snapshot.bytes
	snapCount  *obs.Gauge                   // serve.snapshot.entries

	tier         map[string]*obs.WindowSeries // serve.tier.latency{tier}, µs
	diskHits     *obs.Counter                 // serve.disk.hits
	diskPromotes *obs.Counter                 // serve.disk.promotes
	diskCorrupt  *obs.Counter                 // serve.disk.corrupt
	diskBytes    *obs.Gauge                   // serve.disk.bytes
	diskEntries  *obs.Gauge                   // serve.disk.entries
}

// newTelemetry registers the serving layer's metric families on reg
// (nil reg: every handle is a nil no-op).
func newTelemetry(reg *obs.Registry) telemetry {
	t := telemetry{
		total:   make(map[string]*obs.Counter, len(outcomes)),
		latency: make(map[string]*obs.WindowSeries, len(outcomes)),
	}
	totalVec := reg.Counter("serve.request.total", "requests by outcome", "outcome")
	latencyVec := reg.Window("serve.request.latency", "request wall time in microseconds by outcome", 5*time.Minute, "outcome")
	for _, o := range outcomes {
		t.total[o] = totalVec.With(o)
		t.latency[o] = latencyVec.With(o)
	}
	t.queueWait = reg.Window("serve.queue.wait", "admission queue wait in microseconds", 5*time.Minute).With()
	t.queueDepth = reg.Gauge("serve.queue.depth", "requests waiting for a worker").With()
	t.cacheBytes = reg.Gauge("serve.cache.bytes", "cached output bytes").With()
	t.cacheCount = reg.Gauge("serve.cache.entries", "cached rewrite entries").With()
	t.evictions = reg.Counter("serve.cache.evictions", "cache entries evicted for the byte budget").With()
	t.corrupt = reg.Counter("serve.cache.corrupt", "cache hits that failed the digest check").With()
	t.runs = reg.Counter("serve.pipeline.runs", "pipeline executions").With()
	t.deltaStale = reg.Counter("serve.delta.stale", "placement snapshots dropped for failed integrity checks").With()
	t.snapBytes = reg.Gauge("serve.snapshot.bytes", "placement-snapshot store bytes").With()
	t.snapCount = reg.Gauge("serve.snapshot.entries", "stored placement snapshots").With()
	t.tier = make(map[string]*obs.WindowSeries, len(tiers))
	tierVec := reg.Window("serve.tier.latency", "request wall time in microseconds by answering tier", 5*time.Minute, "tier")
	for _, tr := range tiers {
		t.tier[tr] = tierVec.With(tr)
	}
	t.diskHits = reg.Counter("serve.disk.hits", "disk-tier reads served, digest-verified or from a spill not yet written").With()
	t.diskPromotes = reg.Counter("serve.disk.promotes", "disk-tier hits promoted into the in-memory cache").With()
	t.diskCorrupt = reg.Counter("serve.disk.corrupt", "disk-tier reads quarantined for a failed digest check").With()
	t.diskBytes = reg.Gauge("serve.disk.bytes", "disk-tier stored bytes").With()
	t.diskEntries = reg.Gauge("serve.disk.entries", "disk-tier index entries").With()
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

// Package serve is the rewrite-as-a-service layer: a long-running batch
// front end over the zipr pipeline for deployments where the same
// (binary, configuration) pair is rewritten over and over and must be
// answered from cache, not re-disassembled.
//
// Three mechanisms compose:
//
//   - A content-addressed rewrite cache keyed by SHA-256 of the input
//     image plus the canonical Config fingerprint (zipr.Config.Fingerprint),
//     with LRU eviction under a byte budget. Every cached output carries
//     its own digest, verified on hit, so a corrupted entry degrades to
//     a miss — the cache can serve stale-free wrong bytes never.
//   - Singleflight de-duplication: concurrent identical requests share
//     one pipeline run; followers wait for the leader's result instead
//     of burning workers on identical work.
//   - Admission control: at most Workers concurrent pipeline runs, a
//     bounded wait queue, and per-request deadlines via context. A
//     saturated queue or an expired deadline rejects with the typed
//     zerr.ErrBusy class instead of queueing unboundedly.
//
// Options.Disk adds a second, durable tier behind the RAM cache
// (disktier.go): each object file is its payload followed by the
// payload's SHA-256, so the directory is the whole index — open lists
// it, a read verifies the file against its own trailer, and no journal
// has to agree with it. The tier keeps no report; a disk answer takes
// its layout name from the request.
//
// One ownership rule keeps the copies down: images the server holds —
// RAM-cache entries, snapshot images and pending disk spills — are
// immutable page lists (core.Image), so the stores share them (a delta
// answer's image, and a miss's captured snapshot output, is at once the
// snapshot's output, the cache entry and the disk spill), a delta
// answer shares every page its edit left alone with its ancestor, and
// each store charges a page once (pageRefs). Every slice handed to a
// caller is one fresh flat copy, except a miss leader's answer, the
// pipeline's own output, and a disk read's, the bytes read; a snapshot
// handed out under Config.CaptureSnapshot is a deep copy.
//
// The same rule lets each image be hashed once, where it is made: a
// request's input and fingerprint digests key it and then serve as a
// rebased snapshot's InDigest and the ancestor index key, and an
// output's digest (a snapshot's OutDigest, the disk tier's verified sum,
// or one hash of an uncaptured miss) travels with the image into the
// cache entry and the disk spill. A snapshot's digests are checked when
// it enters the store, not on every Apply; the RAM-hit check stays,
// because it is what catches fault.CacheCorrupt.
//
// Stats is the one record of the server's counts and occupancy: each
// serving event is counted once, there or in the DiskStats behind it.
// Options.Registry, scraped by ziprd's /metrics, adds only what Stats
// cannot hold: serve.request.total and rolling latency quantiles keyed
// by outcome (hit|miss|shared|delta|busy|error) and by answering tier,
// and queue wait — see RewriteMeta, which classifies every request into
// one of those outcomes. Its families that repeat a Stats field (cache,
// snapshot and disk occupancy, pipeline runs, queue depth, ...) read
// that field when scraped. Fault injection (Options.Chaos) arms the
// serve-specific kinds fault.CacheCorrupt (hit-path corruption, which
// the digest check must turn into a verified fallback rewrite) and
// fault.QueueDrop (spurious admission rejection, which must surface as
// a typed ErrBusy+ErrInjected error).
package serve

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"zipr"
	"zipr/internal/core"
	"zipr/internal/fault"
	"zipr/internal/obs"
	"zipr/internal/zerr"
)

// Options configures a Server.
type Options struct {
	// Workers is the maximum number of concurrent pipeline runs
	// (default GOMAXPROCS). Cache hits and singleflight followers do
	// not consume workers.
	Workers int
	// QueueDepth bounds how many admitted requests may wait for a free
	// worker (default 64). Beyond it, requests are rejected with
	// zerr.ErrBusy immediately instead of queueing.
	QueueDepth int
	// CacheBytes is the rewrite cache's byte budget over cached output
	// images (default 64 MiB). Negative disables caching entirely.
	CacheBytes int64
	// SnapshotBytes is the placement-snapshot store's byte budget
	// (default 32 MiB; negative disables delta serving). Snapshots are
	// budgeted separately from CacheBytes on purpose: output-byte
	// eviction under memory pressure must not destroy delta ancestry.
	SnapshotBytes int64
	// Disk, when non-nil, is the disk-backed second cache tier: rewrite
	// outputs and placement snapshots spill to it asynchronously
	// (write-behind; the hot path never blocks on disk), and a RAM miss
	// consults it before running the pipeline, promoting verified hits
	// back into the in-memory cache. The caller owns the tier's
	// lifecycle (OpenDiskTier / Close); a tier may not be shared by two
	// live Servers.
	Disk *DiskTier
	// Registry receives service-lifetime metrics for continuous
	// scraping (ziprd's /metrics): request totals and rolling latency
	// quantiles by outcome
	// (serve.request.*{outcome=hit|miss|shared|delta|busy|error}) and
	// by tier, queue wait, and families that read the Stats counts and
	// occupancy when scraped. Nil disables it.
	Registry *obs.Registry
	// Chaos arms deterministic fault injection for the serving layer
	// (fault.CacheCorrupt, fault.QueueDrop) and is threaded into each
	// pipeline run that does not carry its own injector. Nil disables
	// injection.
	Chaos *fault.Injector
}

// Stats is a point-in-time snapshot of the server's behavior.
type Stats struct {
	Hits, Misses int64 // cache outcomes
	Evictions    int64 // entries dropped for the byte budget
	Corrupt      int64 // hits whose digest check failed (fell back)
	Shared       int64 // singleflight followers served by a leader
	Rejected     int64 // admissions refused (queue full, injected)
	Expired      int64 // deadlines that fired while queued/waiting
	PipelineRuns int64 // actual rewrites executed
	DeltaHits    int64 // requests answered from a placement snapshot
	DeltaStale   int64 // snapshots dropped for failed integrity checks
	CacheEntries int   // current entry count
	CacheBytes   int64 // current cached output bytes
	QueueDepth   int   // requests currently waiting for a worker
	SnapEntries  int   // current placement-snapshot count
	SnapBytes    int64 // current placement-snapshot bytes

	// Snapshot-index and disk-tier occupancy (appended fields; the JSON
	// shape of everything above stays byte-compatible).
	SnapAncestors int   // distinct (fingerprint, length) ancestor index entries
	DiskHits      int64 // disk-tier reads served after digest verification
	DiskMisses    int64 // disk-tier lookups with no entry
	DiskPromotes  int64 // disk hits promoted into the in-memory cache
	DiskCorrupt   int64 // disk reads quarantined for a failed digest check
	DiskEvicted   int64 // disk entries dropped for the byte budget
	DiskDropped   int64 // spills dropped on a full write-behind queue
	DiskRecovered int64 // partial/orphaned artifacts discarded at open
	DiskEntries   int   // current disk-tier index entries
	DiskBytes     int64 // current disk-tier stored bytes
	// DiskPendingHits counts disk-tier reads answered from a spill the
	// writer had not yet indexed (not counted in DiskHits).
	DiskPendingHits int64
	// SnapEvictions counts placement snapshots that left the store to
	// make room: pushed off their ancestor's candidate list or evicted
	// for the byte budget.
	SnapEvictions int64

	// Metrics is the labeled-registry snapshot (request totals and
	// rolling latency quantiles by outcome); nil when the server was
	// built without a Registry. Appended after the flat counters so
	// the JSON shape of the original fields stays byte-compatible.
	Metrics []obs.FamilySnap `json:",omitempty"`
}

// Server is a concurrent batch rewriting daemon core. Construct with
// New; all methods are safe for concurrent use.
type Server struct {
	opts Options
	reg  *obs.Registry
	tel  telemetry
	inj  *fault.Injector
	sem  chan struct{}

	disk *DiskTier

	mu       sync.Mutex
	cache    *lru[entry] // nil when caching is disabled
	snaps    *snapStore  // nil when delta serving is disabled
	inflight map[Key]*call
	stats    Stats
	closed   bool
}

// call is one in-flight pipeline run shared by a leader and any
// followers that requested the same key while it ran.
type call struct {
	done chan struct{}
	out  core.Image
	rep  *zipr.Report
	err  error
}

// New creates a Server. Call Close when done.
func New(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.CacheBytes == 0 {
		opts.CacheBytes = 64 << 20
	}
	if opts.SnapshotBytes == 0 {
		opts.SnapshotBytes = 32 << 20
	}
	s := &Server{
		opts:     opts,
		reg:      opts.Registry,
		inj:      opts.Chaos,
		sem:      make(chan struct{}, opts.Workers),
		disk:     opts.Disk,
		inflight: make(map[Key]*call),
	}
	s.tel = newTelemetry(opts.Registry, s.counts)
	if opts.CacheBytes > 0 {
		s.cache = newLRU[entry](opts.CacheBytes)
		refs := pageRefs{}
		s.cache.charge = func(n *lruNode[entry], d int) int64 { return refs.image(n.val.img, d) }
	}
	if opts.SnapshotBytes > 0 {
		s.snaps = newSnapStore(opts.SnapshotBytes)
	}
	return s
}

// Stats returns a snapshot of the server's counters and occupancy, with
// the registry's snapshot in Metrics.
func (s *Server) Stats() Stats {
	st := s.counts()
	// After s.mu is released: the registry's Stats-backed families call
	// counts themselves.
	st.Metrics = s.reg.Snapshot()
	return st
}

// counts is Stats without Metrics.
func (s *Server) counts() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	if s.cache != nil {
		st.CacheEntries = s.cache.len()
		st.CacheBytes = s.cache.bytes
	}
	if s.snaps != nil {
		st.SnapEntries = s.snaps.lru.len()
		st.SnapBytes = s.snaps.lru.bytes
		st.SnapAncestors = len(s.snaps.byAnc)
	}
	if s.disk != nil {
		ds := s.disk.Stats()
		st.DiskHits = ds.Hits
		st.DiskMisses = ds.Misses
		st.DiskCorrupt = ds.Corrupt
		st.DiskEvicted = ds.Evicted
		st.DiskDropped = ds.WriteDropped
		st.DiskRecovered = ds.Recovered
		st.DiskEntries = ds.Entries
		st.DiskBytes = ds.Bytes
		st.DiskPendingHits = ds.PendingHits
	}
	return st
}

// Close marks the server closed; subsequent Rewrite calls are rejected.
// In-flight requests complete normally.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// effective resolves the request configuration the pipeline will really
// run under: a server-level injector is threaded into requests that do
// not carry their own. The cache key must be derived from this resolved
// config — keying on the caller's nil-chaos config would alias injected
// and clean outputs under one address.
func (s *Server) effective(cfg zipr.Config) zipr.Config {
	if cfg.Chaos == nil && s.inj != nil {
		cfg.Chaos = s.inj
	}
	return cfg
}

// Rewrite answers one request: from cache when the content address is
// known, from a shared in-flight run when an identical request is
// already executing, and from a fresh admitted pipeline run otherwise.
// The returned image is the caller's to keep. ctx bounds the whole
// request; a deadline that expires before a worker frees up rejects
// with zerr.ErrBusy.
func (s *Server) Rewrite(ctx context.Context, input []byte, cfg zipr.Config) ([]byte, *zipr.Report, error) {
	out, rep, _, err := s.RewriteMeta(ctx, input, cfg)
	return out, rep, err
}

// RewriteMeta is Rewrite plus the request's telemetry record: content
// address, outcome classification, queue wait and total wall time. The
// meta is valid even when err != nil (Outcome is then busy or error).
// Labeled metrics (Options.Registry) are observed here, once per
// request.
func (s *Server) RewriteMeta(ctx context.Context, input []byte, cfg zipr.Config) ([]byte, *zipr.Report, RequestMeta, error) {
	start := time.Now()
	out, rep, meta, err := s.rewrite(ctx, input, cfg)
	meta.Wall = time.Since(start)
	s.tel.observe(meta)
	return out, rep, meta, err
}

// rewrite is the request state machine; RewriteMeta wraps it with
// timing and metric observation.
func (s *Server) rewrite(ctx context.Context, input []byte, cfg zipr.Config) ([]byte, *zipr.Report, RequestMeta, error) {
	cfg = s.effective(cfg)
	// Each digest of the request is taken once and handed on: the input
	// digest to a rebased snapshot, the fingerprint digest to the
	// ancestor index.
	inSum, fpSum := sha256.Sum256(input), fingerprintSum(cfg)
	key := keyOf(inSum, fpSum)
	meta := RequestMeta{Key: key}
	// Debug captures (IRDB, address maps) reference per-run pipeline
	// state a cache entry cannot reproduce; such requests bypass the
	// cache in both directions.
	cacheable := !cfg.CaptureIR && !cfg.EmitMap

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		meta.Outcome = OutcomeBusy
		return nil, nil, meta, fmt.Errorf("serve: %w: server closed", zerr.ErrBusy)
	}
	if cacheable && s.cache != nil {
		if n := s.cache.get(key); n != nil {
			e := &n.val
			stored, sum := e.img, e.sum
			rep := e.report(len(input), stored.Len())
			s.mu.Unlock()
			// The one copy: the caller's answer, verified after copying.
			out := stored.Bytes()
			if s.inj.Fires(fault.CacheCorrupt, key.site()) && len(out) > 0 {
				// Corrupt the answer, a private clone, never the stored
				// bytes, which a snapshot or a pending disk spill may
				// share: the digest check below must catch it, evict the
				// entry, and fall back to a fresh run.
				out[s.inj.Pick(fault.CacheCorrupt, key.site(), len(out))] ^= 0xFF
			}
			if sha256.Sum256(out) == sum {
				s.count(&s.stats.Hits)
				meta.Outcome, meta.Tier = OutcomeHit, TierRAM
				return out, rep, meta, nil
			}
			// Verified fallback: drop the poisoned entry and rewrite.
			s.mu.Lock()
			s.cache.remove(n)
			s.stats.Corrupt++
		}
	}
	// Disk tier: a RAM miss consults the on-disk store before anything
	// expensive. A miss is an index lookup (no IO); a hit reads and
	// digest-verifies the file and is promoted into the in-memory cache
	// so the next repeat stays at RAM latency.
	if cacheable && s.disk != nil {
		s.mu.Unlock()
		if raw, img, sum, ok := s.disk.get(key, s.inj); ok {
			// img is a pending spill's image or a read's pages, and sum
			// its digest; the cache keeps img, the caller the bytes read
			// or a copy. The server never installs a custom placer, so
			// the layout the request names is the cold rewrite's.
			if raw == nil {
				raw = img.Bytes()
			}
			rep := &zipr.Report{Layout: string(cfg.EffectiveLayout()), InputSize: len(input), OutputSize: len(raw)}
			if s.cache != nil {
				s.cachePut(key, img, sum, rep)
				s.count(&s.stats.DiskPromotes)
			}
			meta.Outcome, meta.Tier = OutcomeHit, TierDisk
			return raw, rep, meta, nil
		}
		s.mu.Lock()
	}
	if c, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		s.count(&s.stats.Shared)
		select {
		case <-c.done:
			if c.err != nil {
				meta.Outcome = outcomeOfError(c.err)
				return nil, nil, meta, c.err
			}
			rep := *c.rep
			if rep.Snapshot != nil {
				rep.Snapshot = rep.Snapshot.Clone()
			}
			meta.Outcome = OutcomeShared
			return c.out.Bytes(), &rep, meta, nil
		case <-ctx.Done():
			s.count(&s.stats.Expired)
			meta.Outcome = OutcomeBusy
			return nil, nil, meta, fmt.Errorf("serve: %w: %v while awaiting shared run", zerr.ErrBusy, ctx.Err())
		}
	}
	c := &call{done: make(chan struct{})}
	s.inflight[key] = c
	s.mu.Unlock()

	finish := func(out core.Image, rep *zipr.Report, err error) {
		c.out, c.rep, c.err = out, rep, err
		s.mu.Lock()
		delete(s.inflight, key)
		s.mu.Unlock()
		close(c.done)
	}

	// Delta admission: a request whose input is a supported edit of a
	// stored ancestor is answered by patching the ancestor's output —
	// byte-identical to a pipeline run, at memcmp cost — without
	// consuming a worker. Pipeline chaos disables the path: an injector
	// that perturbs analyses or corrupts inputs voids the determinism
	// argument the snapshot identity rests on (the serve-level kinds —
	// CacheCorrupt, QueueDrop, DeltaStaleSnapshot — don't).
	deltaOK := cacheable && s.snaps != nil && !cfg.Chaos.ArmedPipeline()
	anc := ancKey{fp: fpSum, inLen: len(input)}
	if deltaOK {
		if snap, rep, ok := s.tryDelta(key, anc, inSum, input, string(cfg.EffectiveLayout())); ok {
			out := snap.Output
			if s.cache != nil {
				s.cachePut(key, out, snap.OutDigest, rep)
			}
			s.disk.putAsync(key, out, snap.OutDigest)
			repOut := *rep
			if cfg.CaptureSnapshot {
				repOut.Snapshot = snap.Clone()
			}
			finish(out, rep, nil)
			meta.Outcome = OutcomeDelta
			return out.Bytes(), &repOut, meta, nil
		}
	}

	wait, err := s.admit(ctx, key.site())
	meta.QueueWait = wait
	if err != nil {
		finish(core.Image{}, nil, err)
		meta.Outcome = OutcomeBusy
		return nil, nil, meta, err
	}
	s.mu.Lock()
	s.stats.Misses++
	s.stats.PipelineRuns++
	s.mu.Unlock()
	rcfg := cfg
	if deltaOK {
		// Capture this run's placement snapshot so the *next* edited
		// version of this input takes the delta path. Capture never
		// changes the output bytes (it is excluded from the
		// fingerprint, like the other observability knobs).
		rcfg.CaptureSnapshot = true
	}
	out, rep, err := zipr.Rewrite(input, rcfg)
	<-s.sem
	if err != nil {
		finish(core.Image{}, nil, err)
		meta.Outcome = outcomeOfError(err)
		return nil, nil, meta, err
	}
	// One copy of the output: img, the image the server keeps, is at
	// once the cache entry, the disk spill and the followers' source;
	// the pipeline's own bytes go to the leader uncopied. A captured
	// snapshot's output is that image, with the digest Finish took.
	var img core.Image
	var sum [sha256.Size]byte
	if deltaOK && rep.Snapshot != nil {
		snap := rep.Snapshot
		img, sum = snap.Output, snap.OutDigest
		s.storeSnapshot(key, anc, snap, rep)
		if cfg.CaptureSnapshot {
			rep.Snapshot = snap.Clone()
		} else {
			rep.Snapshot = nil
		}
	} else {
		img = core.NewImage(out)
		if cacheable {
			sum = sha256.Sum256(out)
		}
	}
	if cacheable && s.cache != nil {
		s.cachePut(key, img, sum, rep)
	}
	if cacheable {
		s.disk.putAsync(key, img, sum)
	}
	finish(img, rep, err)
	repCopy := *rep
	meta.Outcome = OutcomeMiss
	return out, &repCopy, meta, nil
}

// outcomeOfError classifies a failed request: saturation (the typed
// busy class) is OutcomeBusy, everything else OutcomeError.
func outcomeOfError(err error) string {
	if errors.Is(err, zerr.ErrBusy) {
		return OutcomeBusy
	}
	return OutcomeError
}

// admit acquires a worker slot, waiting in the bounded queue when all
// workers are busy. It owns one sem token on nil error return, and
// reports how long the request waited queued (0 on the fast path).
func (s *Server) admit(ctx context.Context, site uint32) (time.Duration, error) {
	if s.inj.Fires(fault.QueueDrop, site) {
		s.count(&s.stats.Rejected)
		return 0, fmt.Errorf("serve: %w: admission dropped (%w)", zerr.ErrBusy, zerr.ErrInjected)
	}
	select {
	case s.sem <- struct{}{}:
		return 0, nil
	default:
	}
	s.mu.Lock()
	if s.stats.QueueDepth >= s.opts.QueueDepth {
		s.stats.Rejected++
		s.mu.Unlock()
		return 0, fmt.Errorf("serve: %w: queue full (%d waiting)", zerr.ErrBusy, s.opts.QueueDepth)
	}
	s.stats.QueueDepth++
	s.mu.Unlock()
	queued := time.Now()
	defer func() {
		s.mu.Lock()
		s.stats.QueueDepth--
		s.mu.Unlock()
	}()
	select {
	case s.sem <- struct{}{}:
		return time.Since(queued), nil
	case <-ctx.Done():
		s.count(&s.stats.Expired)
		return time.Since(queued), fmt.Errorf("serve: %w: %v while queued", zerr.ErrBusy, ctx.Err())
	}
}

// cachePut stores a completed rewrite's output in the content-addressed
// cache, counting evictions the insert forced. The cache keeps img
// itself, and sum is its SHA-256.
func (s *Server) cachePut(key Key, img core.Image, sum [sha256.Size]byte, rep *zipr.Report) {
	e := entry{
		img:          img,
		sum:          sum,
		cachedReport: keepReport(rep),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.cache.put(key, e, int64(img.Len())); n != nil {
		s.cache.evict(n, func(*lruNode[entry]) { s.stats.Evictions++ })
	}
}

// count bumps one Stats counter.
func (s *Server) count(field *int64) {
	s.mu.Lock()
	*field++
	s.mu.Unlock()
}

package serve

import (
	"bytes"
	"context"
	"regexp"
	"strings"
	"testing"
	"time"

	"zipr"
	"zipr/internal/fault"
	"zipr/internal/isa"
	"zipr/internal/obs"
)

// TestRewriteMetaOutcomes drives one request through each outcome and
// checks both the returned RequestMeta and the labeled registry
// counters it must feed.
func TestRewriteMetaOutcomes(t *testing.T) {
	in := testImages(t)[0]
	reg := obs.NewRegistry()
	s := New(Options{Workers: 2, Registry: reg})
	defer s.Close()

	// Cold: miss.
	_, _, meta, err := s.RewriteMeta(context.Background(), in, nullCfg())
	if err != nil {
		t.Fatal(err)
	}
	if meta.Outcome != OutcomeMiss || meta.Wall <= 0 {
		t.Fatalf("cold meta = %+v, want miss with wall > 0", meta)
	}
	if meta.Key != CacheKey(in, s.effective(nullCfg())) {
		t.Fatal("meta key does not match the request's content address")
	}

	// Warm: hit.
	_, _, meta, err = s.RewriteMeta(context.Background(), in, nullCfg())
	if err != nil {
		t.Fatal(err)
	}
	if meta.Outcome != OutcomeHit {
		t.Fatalf("hot outcome = %q, want hit", meta.Outcome)
	}

	// Junk input: error.
	_, _, meta, err = s.RewriteMeta(context.Background(), []byte("junk"), nullCfg())
	if err == nil || meta.Outcome != OutcomeError {
		t.Fatalf("junk outcome = %q (err %v), want error", meta.Outcome, err)
	}

	// Closed server: busy.
	s.Close()
	_, _, meta, err = s.RewriteMeta(context.Background(), in, nullCfg())
	if err == nil || meta.Outcome != OutcomeBusy {
		t.Fatalf("closed outcome = %q (err %v), want busy", meta.Outcome, err)
	}

	wantTotals := map[string]int64{OutcomeMiss: 1, OutcomeHit: 1, OutcomeError: 1, OutcomeBusy: 1, OutcomeShared: 0}
	for _, fam := range reg.Snapshot() {
		switch fam.Name {
		case "serve.request.total":
			got := map[string]int64{}
			for _, se := range fam.Series {
				got[se.Labels[0]] = se.Value
			}
			for o, want := range wantTotals {
				if got[o] != want {
					t.Fatalf("serve.request.total{%s} = %d, want %d (all: %v)", o, got[o], want, got)
				}
			}
		case "serve.request.latency":
			for _, se := range fam.Series {
				if se.Labels[0] == OutcomeMiss && se.Count != 1 {
					t.Fatalf("latency{miss} count = %d, want 1", se.Count)
				}
			}
		case "serve.pipeline.runs":
			// miss + the failing junk run.
			if fam.Series[0].Value != 2 {
				t.Fatalf("pipeline.runs = %d, want 2", fam.Series[0].Value)
			}
		}
	}
}

// TestStatsIncludesRegistrySnapshot: Stats carries the labeled
// snapshot when a registry is wired, and stays nil without one.
func TestStatsIncludesRegistrySnapshot(t *testing.T) {
	in := testImages(t)[0]
	reg := obs.NewRegistry()
	s := New(Options{Workers: 1, Registry: reg})
	defer s.Close()
	if _, _, err := s.Rewrite(context.Background(), in, nullCfg()); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if len(st.Metrics) == 0 {
		t.Fatal("Stats.Metrics empty with a registry wired")
	}
	names := map[string]bool{}
	for _, fam := range st.Metrics {
		names[fam.Name] = true
	}
	for _, want := range []string{"serve.request.total", "serve.request.latency", "serve.queue.wait", "serve.queue.depth", "serve.cache.bytes", "serve.pipeline.runs"} {
		if !names[want] {
			t.Fatalf("Stats.Metrics missing family %q (have %v)", want, names)
		}
	}

	bare := New(Options{Workers: 1})
	defer bare.Close()
	if st := bare.Stats(); st.Metrics != nil {
		t.Fatal("Stats.Metrics non-nil without a registry")
	}
}

// TestMetricsNamingLint is the CI naming gate (make metricslint):
// every family the serving layer registers must use lowercase dotted
// names, at most one label, and bounded cardinality.
func TestMetricsNamingLint(t *testing.T) {
	in := testImages(t)[0]
	reg := obs.NewRegistry()
	s := New(Options{Workers: 1, Registry: reg})
	defer s.Close()
	// Exercise enough paths to materialize series: miss, hit, error.
	s.Rewrite(context.Background(), in, nullCfg())
	s.Rewrite(context.Background(), in, nullCfg())
	s.Rewrite(context.Background(), []byte("junk"), nullCfg())

	nameRE := regexp.MustCompile(`^[a-z0-9]+(\.[a-z0-9-]+)+$`)
	snap := reg.Snapshot()
	if len(snap) == 0 {
		t.Fatal("no families registered")
	}
	for _, fam := range snap {
		if !nameRE.MatchString(fam.Name) {
			t.Errorf("family %q: not lowercase dotted", fam.Name)
		}
		if len(fam.Labels) > 1 {
			t.Errorf("family %q: %d labels, want <= 1 (bounded cardinality)", fam.Name, len(fam.Labels))
		}
		for _, l := range fam.Labels {
			if !regexp.MustCompile(`^[a-z][a-z0-9_]*$`).MatchString(l) {
				t.Errorf("family %q: label %q not lowercase", fam.Name, l)
			}
		}
		if len(fam.Series) > obs.MaxSeries {
			t.Errorf("family %q: %d series exceeds cap %d", fam.Name, len(fam.Series), obs.MaxSeries)
		}
		if fam.Dropped != 0 {
			t.Errorf("family %q: %d dropped series (cardinality leak)", fam.Name, fam.Dropped)
		}
		// Exposition names must survive the mapping losslessly enough to
		// stay unique.
		if obs.PromName(fam.Name) == "zipr_" {
			t.Errorf("family %q maps to an empty exposition name", fam.Name)
		}
	}
	seen := map[string]string{}
	for _, fam := range snap {
		p := obs.PromName(fam.Name)
		if prev, dup := seen[p]; dup {
			t.Errorf("families %q and %q collide on exposition name %s", prev, fam.Name, p)
		}
		seen[p] = fam.Name
	}
}

// TestQueueWaitMeasured: a request that had to queue reports a
// nonzero QueueWait and feeds the serve.queue.wait window.
func TestQueueWaitMeasured(t *testing.T) {
	in := testImages(t)[1]
	reg := obs.NewRegistry()
	s := New(Options{Workers: 1, QueueDepth: 4, CacheBytes: -1, Registry: reg})
	defer s.Close()

	s.sem <- struct{}{} // occupy the only worker
	release := make(chan struct{})
	go func() {
		time.Sleep(30 * time.Millisecond)
		<-s.sem // free the worker
		close(release)
	}()
	_, _, meta, err := s.RewriteMeta(context.Background(), in, zipr.Config{Transforms: []zipr.Transform{zipr.Null()}})
	<-release
	if err != nil {
		t.Fatal(err)
	}
	if meta.QueueWait < 10*time.Millisecond {
		t.Fatalf("queue wait = %v, want >= 10ms (request had to queue)", meta.QueueWait)
	}
	for _, fam := range reg.Snapshot() {
		if fam.Name == "serve.queue.wait" {
			if fam.Series[0].Count != 1 {
				t.Fatalf("queue.wait count = %d, want 1", fam.Series[0].Count)
			}
			return
		}
	}
	t.Fatal("serve.queue.wait family missing")
}

// metricsScript drives one server through a fixed request script that
// touches every counter and gauge family: a miss, a RAM hit, a delta
// answer, an injected cache-corrupt hit that falls back to a disk-tier
// promotion, a second miss that evicts from the output cache and the
// snapshot store, and a delta answer from a snapshot the disk tier
// holds. The disk writer is paused until the script ends and then
// drained, so every value is deterministic. It returns the drained
// server and its registry.
func metricsScript(t *testing.T) (*Server, *obs.Registry) {
	t.Helper()
	base, edited := deltaImages(t, 2)
	// A larger program of the same family: a separate ancestor whose
	// snapshot evicts the first family's.
	_, prof := deltaProfile()
	other, _ := familyImages(t, isa.ZVM32, 2*prof.NumFuncs, 0)
	cfg := nullCfg()
	snapSize := func(in []byte) int64 {
		c := cfg
		c.CaptureSnapshot = true
		_, rep, err := zipr.Rewrite(in, c)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Snapshot.SizeBytes()
	}
	cold := coldRewrites(t, cfg, base, other)
	// The output cache holds the family's two answers but not a third
	// image besides; the snapshot store holds one snapshot at a time.
	cacheBytes := int64(2*len(cold[0]) + len(cold[1])/2)
	// The slack covers the chaos injector's part of the fingerprint
	// each served snapshot records.
	snapBytes := max(snapSize(base), snapSize(other)) + 1024

	// A seed whose CacheCorrupt fault fires on the first edit's RAM hit
	// but not on the base image's.
	var inj *fault.Injector
	for seed := int64(1); seed <= 100000 && inj == nil; seed++ {
		cand := fault.NewArmed(seed, fault.CacheCorrupt)
		c := cfg
		c.Chaos = cand
		if !cand.Fires(fault.CacheCorrupt, CacheKey(base, c).site()) &&
			cand.Fires(fault.CacheCorrupt, CacheKey(edited[0], c).site()) {
			inj = cand
		}
	}
	if inj == nil {
		t.Fatal("no seed fires on the edit alone")
	}
	tier, start := openPausedTier(t, t.TempDir())
	reg := obs.NewRegistry()
	s := New(Options{Workers: 1, CacheBytes: cacheBytes, SnapshotBytes: snapBytes,
		Disk: tier, Registry: reg, Chaos: inj})
	t.Cleanup(s.Close)
	for i, step := range []struct {
		in      []byte
		outcome string
		tier    string
	}{
		{base, OutcomeMiss, ""},
		{base, OutcomeHit, TierRAM},
		{edited[0], OutcomeDelta, ""},
		{edited[0], OutcomeHit, TierDisk}, // corrupt RAM hit, promoted from disk
		{other, OutcomeMiss, ""},
		{edited[1], OutcomeDelta, ""}, // ancestor read back from the disk tier
	} {
		_, _, meta, err := s.RewriteMeta(context.Background(), step.in, cfg)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if meta.Outcome != step.outcome || meta.Tier != step.tier {
			t.Fatalf("step %d: outcome/tier = %s/%s, want %s/%s", i, meta.Outcome, meta.Tier, step.outcome, step.tier)
		}
	}
	start()
	waitDrained(t, tier)
	return s, reg
}

// promCounterGauges returns reg's exposition without the rolling
// windows (whose values are wall times): every HELP, TYPE and sample
// line of the counter and gauge families.
func promCounterGauges(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	var windows []string
	for _, fam := range reg.Snapshot() {
		if fam.Kind == "window" {
			windows = append(windows, obs.PromName(fam.Name))
		}
	}
	var keep []string
lines:
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		name := strings.TrimPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE ")
		for _, w := range windows {
			if strings.HasPrefix(name, w+"_") || strings.HasPrefix(name, w+" ") || strings.HasPrefix(name, w+"{") {
				continue lines
			}
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n") + "\n"
}

// pinnedMetrics is metricsScript's counter and gauge exposition.
// serve.disk.hits reads 2: the promotion and the ancestor snapshot, both
// read from spills not yet written (Stats.DiskHits + DiskPendingHits).
const pinnedMetrics = `# HELP zipr_serve_request_total requests by outcome
# TYPE zipr_serve_request_total counter
zipr_serve_request_total{outcome="hit"} 2
zipr_serve_request_total{outcome="miss"} 2
zipr_serve_request_total{outcome="shared"} 0
zipr_serve_request_total{outcome="delta"} 2
zipr_serve_request_total{outcome="busy"} 0
zipr_serve_request_total{outcome="error"} 0
# HELP zipr_serve_queue_depth requests waiting for a worker
# TYPE zipr_serve_queue_depth gauge
zipr_serve_queue_depth 0
# HELP zipr_serve_cache_bytes cached output bytes
# TYPE zipr_serve_cache_bytes gauge
zipr_serve_cache_bytes 7695
# HELP zipr_serve_cache_entries cached rewrite entries
# TYPE zipr_serve_cache_entries gauge
zipr_serve_cache_entries 2
# HELP zipr_serve_cache_evictions cache entries evicted for the byte budget
# TYPE zipr_serve_cache_evictions counter
zipr_serve_cache_evictions 2
# HELP zipr_serve_cache_corrupt cache hits that failed the digest check
# TYPE zipr_serve_cache_corrupt counter
zipr_serve_cache_corrupt 1
# HELP zipr_serve_pipeline_runs pipeline executions
# TYPE zipr_serve_pipeline_runs counter
zipr_serve_pipeline_runs 2
# HELP zipr_serve_delta_stale placement snapshots dropped for failed integrity checks
# TYPE zipr_serve_delta_stale counter
zipr_serve_delta_stale 0
# HELP zipr_serve_snapshot_bytes placement-snapshot store bytes
# TYPE zipr_serve_snapshot_bytes gauge
zipr_serve_snapshot_bytes 6826
# HELP zipr_serve_snapshot_entries stored placement snapshots
# TYPE zipr_serve_snapshot_entries gauge
zipr_serve_snapshot_entries 1
# HELP zipr_serve_disk_hits disk-tier reads served, digest-verified or from a spill not yet written
# TYPE zipr_serve_disk_hits counter
zipr_serve_disk_hits 2
# HELP zipr_serve_disk_promotes disk-tier hits promoted into the in-memory cache
# TYPE zipr_serve_disk_promotes counter
zipr_serve_disk_promotes 1
# HELP zipr_serve_disk_corrupt disk-tier reads quarantined for a failed digest check
# TYPE zipr_serve_disk_corrupt counter
zipr_serve_disk_corrupt 0
# HELP zipr_serve_disk_bytes disk-tier stored bytes
# TYPE zipr_serve_disk_bytes gauge
zipr_serve_disk_bytes 31999
# HELP zipr_serve_disk_entries disk-tier index entries
# TYPE zipr_serve_disk_entries gauge
zipr_serve_disk_entries 6
`

// TestMetricsPinned pins every counter and gauge line of /metrics after
// metricsScript: names, HELP and TYPE text, family order and values.
func TestMetricsPinned(t *testing.T) {
	_, reg := metricsScript(t)
	if got := promCounterGauges(t, reg); got != pinnedMetrics {
		t.Fatalf("counter and gauge exposition drifted:\n%s\nwant:\n%s", got, pinnedMetrics)
	}
}

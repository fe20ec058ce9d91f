package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"zipr"
	"zipr/internal/core"
	"zipr/internal/fault"
	"zipr/internal/obs"
	"zipr/internal/synth"
	"zipr/internal/zerr"
)

// testImage builds (once per index) a small serialized ZELF test input.
var (
	imgOnce sync.Once
	imgs    [][]byte
)

func testImages(t *testing.T) [][]byte {
	t.Helper()
	imgOnce.Do(func() {
		profiles := []synth.Profile{
			{Name: "sva", NumFuncs: 8, OpsMin: 4, OpsMax: 10, HandwrittenFrac: 0.2,
				FuncPtrTableFrac: 0.3, DataWords: 32, InputLen: 4, LoopIters: 3},
			{Name: "svb", NumFuncs: 14, OpsMin: 5, OpsMax: 12, HandwrittenFrac: 0.1,
				FuncPtrTableFrac: 0.2, DataWords: 64, InputLen: 4, LoopIters: 2},
			{Name: "svc", NumFuncs: 10, OpsMin: 4, OpsMax: 8, HandwrittenFrac: 0.3,
				FuncPtrTableFrac: 0.4, DataWords: 48, InputLen: 4, LoopIters: 4},
		}
		for i, p := range profiles {
			bin, err := synth.Build(int64(0x5E44+i), p)
			if err != nil {
				panic(fmt.Sprintf("synth %s: %v", p.Name, err))
			}
			img, err := bin.Marshal()
			if err != nil {
				panic(fmt.Sprintf("marshal %s: %v", p.Name, err))
			}
			imgs = append(imgs, img)
		}
	})
	return imgs
}

func nullCfg() zipr.Config {
	return zipr.Config{Transforms: []zipr.Transform{zipr.Null()}}
}

// TestCacheKeyCanonical: the key must be stable across config spellings
// that rewrite identically, and distinct across ones that do not.
func TestCacheKeyCanonical(t *testing.T) {
	in := testImages(t)[0]
	base := CacheKey(in, zipr.Config{Transforms: []zipr.Transform{zipr.Null()}})
	// Default layout spelled explicitly, seed irrelevant under it, and
	// observability settings must not split the key.
	same := []zipr.Config{
		{Transforms: []zipr.Transform{zipr.Null()}, Layout: zipr.LayoutOptimized},
		{Transforms: []zipr.Transform{zipr.Null()}, Seed: 99},
		{Transforms: []zipr.Transform{zipr.Null()}, Trace: obs.New()},
	}
	for i, cfg := range same {
		if CacheKey(in, cfg) != base {
			t.Fatalf("config %d: equivalent config produced a different key", i)
		}
	}
	diff := []zipr.Config{
		{Transforms: []zipr.Transform{zipr.CFI()}},
		{Transforms: []zipr.Transform{zipr.StackPad(32)}},
		{Transforms: []zipr.Transform{zipr.StackPad(48)}},
		{Transforms: []zipr.Transform{zipr.Null()}, Layout: zipr.LayoutDiversity},
		{Transforms: []zipr.Transform{zipr.Null()}, Chaos: fault.NewArmed(3, fault.CacheCorrupt)},
	}
	seen := map[Key]int{base: -1}
	for i, cfg := range diff {
		k := CacheKey(in, cfg)
		if prev, dup := seen[k]; dup {
			t.Fatalf("configs %d and %d share a key", prev, i)
		}
		seen[k] = i
	}
	// Diversity seed matters under the diversity layout.
	d1 := CacheKey(in, zipr.Config{Layout: zipr.LayoutDiversity, Seed: 1})
	d2 := CacheKey(in, zipr.Config{Layout: zipr.LayoutDiversity, Seed: 2})
	if d1 == d2 {
		t.Fatal("diversity seeds 1 and 2 share a key")
	}
}

// TestHitIdenticalAndZeroPipelineWork: a hot request must return bytes
// identical to the cold rewrite while performing zero disassembly/IR
// work, asserted through the obs counters of a per-request trace (the
// pipeline bumps rewrite.count and phase counters on every real run).
func TestHitIdenticalAndZeroPipelineWork(t *testing.T) {
	in := testImages(t)[0]
	s := New(Options{Workers: 2})
	defer s.Close()

	coldTr := obs.New()
	cfg := nullCfg()
	cfg.Trace = coldTr
	cold, coldRep, err := s.Rewrite(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := coldTr.Counter("rewrite.count"); got != 1 {
		t.Fatalf("cold request: rewrite.count = %d, want 1", got)
	}

	hotTr := obs.New()
	cfg = nullCfg()
	cfg.Trace = hotTr
	hot, hotRep, err := s.Rewrite(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, hot) {
		t.Fatalf("hit returned different bytes (%d vs %d)", len(cold), len(hot))
	}
	if got := hotTr.Counter("rewrite.count"); got != 0 {
		t.Fatalf("hot request: rewrite.count = %d, want 0 (no pipeline work on hit)", got)
	}
	if hotRep.Stats != coldRep.Stats || hotRep.Layout != coldRep.Layout {
		t.Fatalf("hit report differs: %+v vs %+v", hotRep, coldRep)
	}
	st := s.Stats()
	if st.PipelineRuns != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 run, 1 hit, 1 miss", st)
	}
}

// TestConcurrentIdenticalSingleflight: 8 concurrent identical requests
// must trigger exactly one pipeline run and agree byte-for-byte.
func TestConcurrentIdenticalSingleflight(t *testing.T) {
	in := testImages(t)[1]
	s := New(Options{Workers: 4})
	defer s.Close()
	const n = 8
	outs := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], _, errs[i] = s.Rewrite(context.Background(), in, nullCfg())
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bytes.Equal(outs[i], outs[0]) {
			t.Fatalf("request %d returned different bytes", i)
		}
	}
	if st := s.Stats(); st.PipelineRuns != 1 {
		t.Fatalf("pipeline runs = %d, want exactly 1 (stats %+v)", st.PipelineRuns, st)
	}
}

// TestSingleflightFollowerSharesLeader pins the wait path itself: a
// request arriving while an identical one is in flight must block until
// the leader finishes and return the leader's result.
func TestSingleflightFollowerSharesLeader(t *testing.T) {
	in := testImages(t)[0]
	s := New(Options{Workers: 1})
	defer s.Close()
	cfg := nullCfg()
	k := CacheKey(in, s.effective(cfg))
	c := &call{done: make(chan struct{})}
	s.mu.Lock()
	s.inflight[k] = c
	s.mu.Unlock()
	want := []byte("leader-bytes")
	go func() {
		time.Sleep(20 * time.Millisecond)
		c.out, c.rep = core.NewImage(want), &zipr.Report{Layout: "optimized"}
		s.mu.Lock()
		delete(s.inflight, k)
		s.mu.Unlock()
		close(c.done)
	}()
	out, rep, err := s.Rewrite(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) || rep.Layout != "optimized" {
		t.Fatalf("follower got %q/%+v, want leader result", out, rep)
	}
	if st := s.Stats(); st.Shared != 1 {
		t.Fatalf("shared counter = %d, want 1", st.Shared)
	}
}

// TestWorkerCountDeterministic: the same request batch must produce
// identical output digests at j=1 and j=8.
func TestWorkerCountDeterministic(t *testing.T) {
	images := testImages(t)
	cfgs := []zipr.Config{
		{Transforms: []zipr.Transform{zipr.Null()}},
		{Transforms: []zipr.Transform{zipr.CFI()}},
		{Transforms: []zipr.Transform{zipr.Stir(7), zipr.CFI()}, Layout: zipr.LayoutDiversity, Seed: 42},
	}
	run := func(workers int) map[string][32]byte {
		s := New(Options{Workers: workers})
		defer s.Close()
		digests := make(map[string][32]byte)
		var mu sync.Mutex
		var wg sync.WaitGroup
		for ii, img := range images {
			for ci, cfg := range cfgs {
				wg.Add(1)
				go func(label string, img []byte, cfg zipr.Config) {
					defer wg.Done()
					out, _, err := s.Rewrite(context.Background(), img, cfg)
					if err != nil {
						t.Errorf("%s: %v", label, err)
						return
					}
					mu.Lock()
					digests[label] = sha256.Sum256(out)
					mu.Unlock()
				}(fmt.Sprintf("img%d/cfg%d", ii, ci), img, cfg)
			}
		}
		wg.Wait()
		return digests
	}
	j1, j8 := run(1), run(8)
	if len(j1) != len(images)*len(cfgs) || len(j8) != len(j1) {
		t.Fatalf("digest counts: j1=%d j8=%d, want %d", len(j1), len(j8), len(images)*len(cfgs))
	}
	for label, d1 := range j1 {
		if j8[label] != d1 {
			t.Fatalf("%s: output digest differs between j=1 and j=8", label)
		}
	}
}

// TestLRUEviction: the output cache's byte budget must hold after
// inserts, evicting least-recently-used entries first.
func TestLRUEviction(t *testing.T) {
	s := New(Options{CacheBytes: 100})
	defer s.Close()
	c := s.cache
	put := func(id byte, n int) {
		out := bytes.Repeat([]byte{id}, n)
		s.cachePut(Key{id}, core.NewImage(out), sha256.Sum256(out), &zipr.Report{})
	}
	put(1, 40)
	put(2, 40)
	k1 := Key{1}
	if c.get(k1) == nil { // promote 1: now 2 is the LRU
		t.Fatal("entry 1 missing")
	}
	put(3, 40) // 120 > 100: evicts 2
	k2 := Key{2}
	if c.get(k2) != nil {
		t.Fatal("LRU entry 2 survived eviction")
	}
	if c.get(k1) == nil {
		t.Fatal("recently-used entry 1 was evicted")
	}
	if c.bytes > 100 {
		t.Fatalf("cache bytes %d exceed budget", c.bytes)
	}
	if ev := s.Stats().Evictions; ev != 1 {
		t.Fatalf("evicted = %d, want 1", ev)
	}
	// An entry larger than the whole budget must not be cached (and
	// must not wipe the working set).
	put(4, 200)
	k4 := Key{4}
	if c.get(k4) != nil {
		t.Fatal("over-budget entry was cached")
	}
	if c.get(k1) == nil {
		t.Fatal("over-budget insert evicted the working set")
	}
}

// TestServerEviction drives eviction through the Server with a budget
// sized for roughly one rewritten image.
func TestServerEviction(t *testing.T) {
	images := testImages(t)
	// First, learn the output sizes to pick a budget that holds any one
	// output but never two.
	probe := New(Options{Workers: 1})
	var largest int
	for _, img := range images {
		out, _, err := probe.Rewrite(context.Background(), img, nullCfg())
		if err != nil {
			t.Fatal(err)
		}
		if len(out) > largest {
			largest = len(out)
		}
	}
	probe.Close()

	budget := int64(largest + 16)
	s := New(Options{Workers: 1, CacheBytes: budget})
	defer s.Close()
	for _, img := range images {
		if _, _, err := s.Rewrite(context.Background(), img, nullCfg()); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a one-entry budget (stats %+v)", st)
	}
	if st.CacheBytes > budget {
		t.Fatalf("cache bytes %d exceed budget %d", st.CacheBytes, budget)
	}
}

// TestAdmissionQueueFullRejects: with all workers busy and the queue at
// depth, a request must be rejected with the typed busy class.
func TestAdmissionQueueFullRejects(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1})
	defer s.Close()
	s.sem <- struct{}{} // occupy the only worker
	s.mu.Lock()
	s.stats.QueueDepth = 1 // queue at capacity
	s.mu.Unlock()
	_, err := s.admit(context.Background(), 0)
	if err == nil || !errors.Is(err, zerr.ErrBusy) {
		t.Fatalf("admit under saturation = %v, want ErrBusy", err)
	}
	if zerr.ClassName(err) != "busy" {
		t.Fatalf("class = %q, want busy", zerr.ClassName(err))
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", st.Rejected)
	}
}

// TestAdmissionDeadlineExpires: a queued request whose deadline fires
// before a worker frees up must fail with ErrBusy, and the queue-depth
// gauge must return to zero.
func TestAdmissionDeadlineExpires(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4})
	defer s.Close()
	s.sem <- struct{}{} // worker never frees
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := s.admit(ctx, 0)
	if err == nil || !errors.Is(err, zerr.ErrBusy) {
		t.Fatalf("admit past deadline = %v, want ErrBusy", err)
	}
	if st := s.Stats(); st.Expired != 1 || st.QueueDepth != 0 {
		t.Fatalf("stats = %+v, want 1 expiry and empty queue", st)
	}
}

// TestChaosCacheCorruptFallsBack: with fault.CacheCorrupt armed, a hit
// whose entry was poisoned must be detected by the digest check and
// fall back to a fresh rewrite returning correct bytes.
func TestChaosCacheCorruptFallsBack(t *testing.T) {
	in := testImages(t)[2]
	// Find a chaos seed whose schedule fires at this request's site.
	// The server threads its injector into the config before keying, so
	// the probe must fold the candidate injector into the fingerprint.
	cfg := nullCfg()
	var inj *fault.Injector
	for seed := int64(1); seed <= 1000; seed++ {
		cand := fault.NewArmed(seed, fault.CacheCorrupt)
		c := cfg
		c.Chaos = cand
		if cand.Fires(fault.CacheCorrupt, CacheKey(in, c).site()) {
			inj = cand
			break
		}
	}
	if inj == nil {
		t.Fatal("no firing seed found in 1000 tries")
	}
	s := New(Options{Workers: 1, Chaos: inj})
	defer s.Close()
	cold, _, err := s.Rewrite(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hot, _, err := s.Rewrite(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, hot) {
		t.Fatal("fallback rewrite returned different bytes than the cold run")
	}
	st := s.Stats()
	if st.Corrupt == 0 {
		t.Fatalf("corruption undetected (stats %+v)", st)
	}
	if st.PipelineRuns != 2 {
		t.Fatalf("pipeline runs = %d, want 2 (cold + verified fallback)", st.PipelineRuns)
	}
}

// TestChaosQueueDropRejects: with fault.QueueDrop armed at a firing
// site, admission must reject with ErrBusy + ErrInjected.
func TestChaosQueueDropRejects(t *testing.T) {
	images := testImages(t)
	cfg := nullCfg()
	// Find a (seed, image) pair whose admission site fires, folding the
	// candidate injector into the key as the server will.
	var inj *fault.Injector
	var img []byte
search:
	for seed := int64(1); seed <= 1000; seed++ {
		cand := fault.NewArmed(seed, fault.QueueDrop)
		for _, im := range images {
			c := cfg
			c.Chaos = cand
			if cand.Fires(fault.QueueDrop, CacheKey(im, c).site()) {
				inj, img = cand, im
				break search
			}
		}
	}
	if img == nil {
		t.Fatal("no firing (seed, image) pair found")
	}
	s := New(Options{Workers: 2, Chaos: inj})
	defer s.Close()
	_, _, err := s.Rewrite(context.Background(), img, cfg)
	if err == nil || !errors.Is(err, zerr.ErrBusy) || !errors.Is(err, zerr.ErrInjected) {
		t.Fatalf("injected drop = %v, want ErrBusy+ErrInjected", err)
	}
	if st := s.Stats(); st.Rejected != 1 || st.PipelineRuns != 0 {
		t.Fatalf("stats = %+v, want 1 rejection and no pipeline runs", st)
	}
}

// TestErrorsNotCached: a failing request must not poison the cache, and
// the typed class must pass through the serving layer.
func TestErrorsNotCached(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	junk := []byte("not a zelf image")
	for i := 0; i < 2; i++ {
		_, _, err := s.Rewrite(context.Background(), junk, nullCfg())
		if err == nil || zipr.ErrorClass(err) != "format" {
			t.Fatalf("attempt %d: err = %v, want format class", i, err)
		}
	}
	if st := s.Stats(); st.PipelineRuns != 2 || st.Hits != 0 || st.CacheEntries != 0 {
		t.Fatalf("stats = %+v, want 2 runs, no hits, empty cache", st)
	}
}

// TestCacheDisabled: CacheBytes < 0 must run the pipeline every time.
func TestCacheDisabled(t *testing.T) {
	in := testImages(t)[0]
	s := New(Options{Workers: 1, CacheBytes: -1})
	defer s.Close()
	a, _, err := s.Rewrite(context.Background(), in, nullCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := s.Rewrite(context.Background(), in, nullCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("uncached rewrites disagree")
	}
	if st := s.Stats(); st.PipelineRuns != 2 || st.CacheEntries != 0 {
		t.Fatalf("stats = %+v, want 2 runs and no cache", st)
	}
}

// TestClosedServerRejects: Rewrite after Close fails typed.
func TestClosedServerRejects(t *testing.T) {
	s := New(Options{Workers: 1})
	s.Close()
	_, _, err := s.Rewrite(context.Background(), testImages(t)[0], nullCfg())
	if err == nil || !errors.Is(err, zerr.ErrBusy) {
		t.Fatalf("closed server = %v, want ErrBusy", err)
	}
}

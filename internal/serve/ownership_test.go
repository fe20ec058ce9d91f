package serve

// Ownership tests: the stores share immutable pages — a delta answer's
// image is at once the new snapshot's output, the cache entry and the
// pending disk spill, and it shares every page its edit left alone with
// its ancestor's — and every slice the server hands out is the caller's
// own copy. A caller that scribbles over its answers, or over the
// snapshot it asked for, must not change what any later request gets,
// on any path; fault injection must corrupt only private clones; and
// the disk writer may stream a snapshot while requests apply it.

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"zipr"
	"zipr/internal/core"
	"zipr/internal/fault"
	"zipr/internal/isa"
)

// archCfg is the null stack on arch.
func archCfg(arch isa.Arch) zipr.Config {
	cfg := nullCfg()
	if !isa.IsDefault(arch) {
		cfg.ISA = arch.Name()
	}
	return cfg
}

// coldRewrites rewrites each input from scratch, outside any server.
func coldRewrites(t *testing.T, cfg zipr.Config, ins ...[]byte) [][]byte {
	t.Helper()
	outs := make([][]byte, len(ins))
	for i, in := range ins {
		out, _, err := zipr.Rewrite(in, cfg)
		if err != nil {
			t.Fatalf("cold rewrite %d: %v", i, err)
		}
		outs[i] = out
	}
	return outs
}

// scribble overwrites every byte of b.
func scribble(b []byte) {
	for i := range b {
		b[i] ^= 0xA5
	}
}

// askScribble sends one request under Config.CaptureSnapshot, requires
// the given outcome and tier and the cold bytes want, then scribbles
// over the answer and over every page and table of the snapshot a miss
// or a delta answer hands out.
func askScribble(t *testing.T, s *Server, in []byte, cfg zipr.Config, want []byte, outcome, tier string) {
	t.Helper()
	cfg.CaptureSnapshot = true
	out, rep, meta, err := s.RewriteMeta(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Outcome != outcome || meta.Tier != tier {
		t.Fatalf("outcome/tier = %s/%s, want %s/%s", meta.Outcome, meta.Tier, outcome, tier)
	}
	if !bytes.Equal(out, want) {
		t.Fatalf("%s answer differs from a cold rewrite", outcome)
	}
	scribble(out)
	snap := rep.Snapshot
	if (outcome == OutcomeMiss || outcome == OutcomeDelta) != (snap != nil) {
		t.Fatalf("%s answer: snapshot handed out = %v", outcome, snap != nil)
	}
	if snap == nil {
		return
	}
	for _, p := range append(snap.Input.Pages(), snap.Output.Pages()...) {
		scribble(p)
	}
	for i := range snap.Units {
		snap.Units[i].Range.Start ^= 0xA5
	}
	for i := range snap.Spans {
		snap.Spans[i].Placed ^= 0xA5
	}
}

// waitDrained waits until the disk tier's writer has retired every
// pending spill.
func waitDrained(t *testing.T, tier *DiskTier) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		tier.mu.Lock()
		n := len(tier.pending)
		tier.mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d spills still pending", n)
		}
	}
}

// TestAnswersAreCallerOwned: scribbling over every answer — miss,
// RAM hit, delta, pending disk hit, disk hit with promotion, and
// singleflight follower — and over the snapshot clone a miss or a delta
// answer hands out changes nothing any later request gets, and no
// snapshot goes stale or disk object corrupt because of it.
func TestAnswersAreCallerOwned(t *testing.T) {
	base, edited := familyImages(t, isa.ZVM32, 12, 2)
	cfg := nullCfg()
	want := coldRewrites(t, cfg, base, edited[0], edited[1])

	t.Run("ram", func(t *testing.T) {
		s := New(Options{Workers: 1})
		defer s.Close()
		askScribble(t, s, base, cfg, want[0], OutcomeMiss, "")
		askScribble(t, s, base, cfg, want[0], OutcomeHit, TierRAM)
		askScribble(t, s, edited[0], cfg, want[1], OutcomeDelta, "")
		askScribble(t, s, edited[0], cfg, want[1], OutcomeHit, TierRAM)
		// The rebased snapshot of edited[0] answers edited[1]: its output
		// is the image handed out (and scribbled) twice above.
		askScribble(t, s, edited[1], cfg, want[2], OutcomeDelta, "")
		askScribble(t, s, edited[1], cfg, want[2], OutcomeHit, TierRAM)
		askScribble(t, s, base, cfg, want[0], OutcomeHit, TierRAM)
		if st := s.Stats(); st.DeltaStale != 0 || st.Corrupt != 0 {
			t.Fatalf("stale snapshots/corrupt entries = %d/%d, want 0/0", st.DeltaStale, st.Corrupt)
		}
	})

	t.Run("disk", func(t *testing.T) {
		dir := t.TempDir()
		tier, start := openPausedTier(t, dir)
		s := New(Options{Workers: 1, CacheBytes: -1, Disk: tier})
		askScribble(t, s, base, cfg, want[0], OutcomeMiss, "")
		askScribble(t, s, base, cfg, want[0], OutcomeHit, TierDisk) // pending
		askScribble(t, s, edited[0], cfg, want[1], OutcomeDelta, "")
		askScribble(t, s, edited[0], cfg, want[1], OutcomeHit, TierDisk) // pending
		if st := s.Stats(); st.DiskPendingHits != 2 {
			t.Fatalf("pending hits = %d, want 2", st.DiskPendingHits)
		}
		start()
		waitDrained(t, tier)
		askScribble(t, s, base, cfg, want[0], OutcomeHit, TierDisk) // read back
		askScribble(t, s, edited[0], cfg, want[1], OutcomeHit, TierDisk)
		askScribble(t, s, edited[1], cfg, want[2], OutcomeDelta, "")
		if st := s.Stats(); st.DeltaStale != 0 || st.DiskCorrupt != 0 || st.DiskHits != 2 {
			t.Fatalf("stale/disk corrupt/disk hits = %d/%d/%d, want 0/0/2", st.DeltaStale, st.DiskCorrupt, st.DiskHits)
		}
		s.Close()
		tier.Close()

		// A restarted server promotes disk reads into its RAM cache.
		tier2 := openTier(t, dir, 0)
		s2 := New(Options{Workers: 1, Disk: tier2})
		defer s2.Close()
		for i, in := range [][]byte{base, edited[0], edited[1]} {
			askScribble(t, s2, in, cfg, want[i], OutcomeHit, TierDisk)
			askScribble(t, s2, in, cfg, want[i], OutcomeHit, TierRAM)
		}
		if st := s2.Stats(); st.DiskPromotes != 3 || st.Corrupt != 0 {
			t.Fatalf("promotes/corrupt = %d/%d, want 3/0", st.DiskPromotes, st.Corrupt)
		}
	})

	t.Run("shared", func(t *testing.T) {
		s := New(Options{Workers: 1})
		defer s.Close()
		k := CacheKey(base, s.effective(cfg))
		c := &call{done: make(chan struct{})}
		s.mu.Lock()
		s.inflight[k] = c
		s.mu.Unlock()
		leader := core.NewImage(want[0])
		const followers = 4
		var wg sync.WaitGroup
		for i := 0; i < followers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out, _, meta, err := s.RewriteMeta(context.Background(), base, cfg)
				if err != nil || meta.Outcome != OutcomeShared || !bytes.Equal(out, want[0]) {
					t.Errorf("follower: outcome %s err %v, equal %v", meta.Outcome, err, bytes.Equal(out, want[0]))
				}
				scribble(out)
			}()
		}
		for s.Stats().Shared < followers {
			time.Sleep(time.Millisecond)
		}
		c.out, c.rep = leader, &zipr.Report{Layout: "optimized"}
		s.mu.Lock()
		delete(s.inflight, k)
		s.mu.Unlock()
		close(c.done)
		wg.Wait()
		if !bytes.Equal(leader.Bytes(), want[0]) {
			t.Fatal("a follower's scribble reached the leader's bytes")
		}
	})
}

// TestCacheCorruptSparesSharedBytes: with fault.CacheCorrupt firing on
// RAM hits of both an ancestor and a delta answer, beside delta and
// disk traffic, only the caller's clone is corrupted. Each hit is
// detected and falls back to the pending disk spill, which shares the
// entry's bytes; no snapshot goes stale, a later edit still takes the
// delta path from the snapshot that shares them too, and the disk tier
// ends up holding cold-rewrite bytes.
func TestCacheCorruptSparesSharedBytes(t *testing.T) {
	base, edited := familyImages(t, isa.ZVM32, 12, 2)
	cfg := nullCfg()
	want := coldRewrites(t, cfg, base, edited[0], edited[1])
	var inj *fault.Injector
	for seed := int64(1); seed <= 100000 && inj == nil; seed++ {
		cand := fault.NewArmed(seed, fault.CacheCorrupt)
		c := cfg
		c.Chaos = cand
		if cand.Fires(fault.CacheCorrupt, CacheKey(base, c).site()) &&
			cand.Fires(fault.CacheCorrupt, CacheKey(edited[0], c).site()) {
			inj = cand
		}
	}
	if inj == nil {
		t.Fatal("no seed fires on both keys")
	}
	dir := t.TempDir()
	tier, start := openPausedTier(t, dir)
	s := New(Options{Workers: 1, Disk: tier, Chaos: inj})
	askScribble(t, s, base, cfg, want[0], OutcomeMiss, "")
	askScribble(t, s, base, cfg, want[0], OutcomeHit, TierDisk)
	askScribble(t, s, edited[0], cfg, want[1], OutcomeDelta, "")
	// This entry's bytes are also the rebased snapshot's output and the
	// pending disk spill.
	askScribble(t, s, edited[0], cfg, want[1], OutcomeHit, TierDisk)
	askScribble(t, s, edited[1], cfg, want[2], OutcomeDelta, "")
	st := s.Stats()
	if st.Corrupt != 2 || st.DeltaStale != 0 || st.DiskPendingHits != 2 {
		t.Fatalf("corrupt/stale/pending hits = %d/%d/%d, want 2/0/2", st.Corrupt, st.DeltaStale, st.DiskPendingHits)
	}
	s.Close()
	start()
	tier.Close()

	tier2 := openTier(t, dir, 0)
	s2 := New(Options{Workers: 1, CacheBytes: -1, SnapshotBytes: -1, Disk: tier2})
	defer s2.Close()
	for i, in := range [][]byte{base, edited[0], edited[1]} {
		// The chaos injector is part of the content address, so the
		// restarted server reads the spills under the same config.
		c := cfg
		c.Chaos = inj
		askScribble(t, s2, in, c, want[i], OutcomeHit, TierDisk)
	}
	if st := s2.Stats(); st.DiskCorrupt != 0 || st.PipelineRuns != 0 {
		t.Fatalf("disk corrupt/pipeline runs = %d/%d, want 0/0", st.DiskCorrupt, st.PipelineRuns)
	}
}

// TestDeltaHitsOverlapSnapshotStreaming: concurrent delta answers on
// one family read the snapshots the disk writer is streaming out (each
// answer spills its rebased snapshot to the family's one slot). Under
// -race this checks that the writer and the requests only ever read
// the shared images.
func TestDeltaHitsOverlapSnapshotStreaming(t *testing.T) {
	const clients, rounds = 4, 3
	base, edited := familyImages(t, isa.ZVM32, 12, clients*rounds)
	cfg := nullCfg()
	want := coldRewrites(t, cfg, edited...)
	tier := openTier(t, t.TempDir(), 0)
	s := New(Options{Workers: 2, Disk: tier})
	defer s.Close()
	if _, _, err := s.Rewrite(context.Background(), base, cfg); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			i := r*clients + c
			wg.Add(1)
			go func() {
				defer wg.Done()
				out, _, err := s.Rewrite(context.Background(), edited[i], cfg)
				if err != nil || !bytes.Equal(out, want[i]) {
					t.Errorf("edit %d: err %v, equal %v", i, err, bytes.Equal(out, want[i]))
				}
				scribble(out)
			}()
		}
		wg.Wait()
	}
	if st := s.Stats(); st.DeltaHits == 0 || st.DeltaStale != 0 {
		t.Fatalf("delta hits/stale = %d/%d, want >0/0", st.DeltaHits, st.DeltaStale)
	}
}

// touchedPages counts the pages in which a and b, of equal length,
// differ.
func touchedPages(a, b []byte) int {
	n := 0
	for off := 0; off < len(a); off += core.PageSize {
		end := min(off+core.PageSize, len(a))
		if !bytes.Equal(a[off:end], b[off:end]) {
			n++
		}
	}
	return n
}

// TestDeltaHitAllocBound: one served delta answer on a family of many
// pages allocates one image, the caller's copy, plus two pages for each
// page its edit touches — the output page Apply patches and the input
// page Rebase copies — plus small change. The rebased snapshot, the
// cache entry and the disk spill share every other page with the
// ancestor; an Apply that copied the whole ancestor output would add an
// image. The best of four answers counts, as the disk writer allocates
// beside them.
func TestDeltaHitAllocBound(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ZVM32, isa.ZVM64} {
		t.Run(arch.Name(), func(t *testing.T) {
			base, edited := familyImages(t, arch, 400, 4)
			if len(base) < 64<<10 {
				t.Fatalf("family image is %d bytes, want at least 64 KiB", len(base))
			}
			cfg := archCfg(arch)
			tier := openTier(t, t.TempDir(), 0)
			s := New(Options{Workers: 1, Disk: tier})
			defer s.Close()
			if _, _, err := s.Rewrite(context.Background(), base, cfg); err != nil {
				t.Fatal(err)
			}
			prev, best := base, int64(1<<62)
			for _, in := range edited {
				// The newest snapshot, prev's, answers in.
				touched := touchedPages(prev, in)
				prev = in
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				out, _, meta, err := s.RewriteMeta(context.Background(), in, cfg)
				runtime.ReadMemStats(&after)
				if err != nil || meta.Outcome != OutcomeDelta {
					t.Fatalf("outcome %s err %v, want delta", meta.Outcome, err)
				}
				// What the answer allocated beyond its caller's copy and
				// two pages per touched page.
				over := int64(after.TotalAlloc-before.TotalAlloc) - int64(len(out)+2*touched*core.PageSize)
				t.Logf("%s: image %d bytes, %d pages touched, %d bytes allocated beyond them",
					arch.Name(), len(out), touched, over)
				best = min(best, over)
			}
			if best > 16<<10 {
				t.Fatalf("every delta answer allocated %d bytes or more beyond one image and two pages per touched page, over 16 KiB", best)
			}
		})
	}
}

package serve

// Disk-tier tests: spilled outputs survive a restart and answer an
// empty-RAM server without a pipeline run; crash debris (truncated tmp
// files, a torn journal tail, missing objects, orphans) is dropped and
// counted on reopen; corruption is quarantined and degrades to a miss
// (never wrong bytes); eviction honors the byte budget; and placement
// snapshots spill so delta ancestry survives a restart too.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"zipr"
	"zipr/internal/core"
	"zipr/internal/fault"
)

// openTier opens a disk tier rooted in dir, failing the test on error
// and closing it on cleanup.
func openTier(t *testing.T, dir string, budget int64) *DiskTier {
	t.Helper()
	tier, err := OpenDiskTier(dir, budget)
	if err != nil {
		t.Fatalf("open disk tier: %v", err)
	}
	t.Cleanup(tier.Close)
	return tier
}

// spillOut spills data as an optimized-layout output image under key.
func spillOut(tier *DiskTier, key Key, data []byte) {
	tier.putAsync(key, data, sha256.Sum256(data), "optimized")
}

// TestDiskTierRestartHit is the durability contract: a rewrite spilled
// by one server is answered by a restarted, empty-RAM server from disk
// — digest-verified, no pipeline run — and promoted so the next repeat
// is a RAM hit.
func TestDiskTierRestartHit(t *testing.T) {
	in := testImages(t)[0]
	cfg := nullCfg()
	dir := t.TempDir()

	tier := openTier(t, dir, 0)
	a := New(Options{Workers: 1, SnapshotBytes: -1, Disk: tier})
	cold, _, err := a.Rewrite(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	tier.Close() // drains the write-behind queue

	tier2 := openTier(t, dir, 0)
	if st := tier2.Stats(); st.Entries != 1 {
		t.Fatalf("reopened tier holds %d entries, want 1", st.Entries)
	}
	b := New(Options{Workers: 1, SnapshotBytes: -1, Disk: tier2})
	defer b.Close()
	out, rep, meta, err := b.RewriteMeta(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, cold) {
		t.Fatal("disk-tier answer diverges from the original rewrite")
	}
	if meta.Outcome != OutcomeHit || meta.Tier != TierDisk {
		t.Fatalf("outcome/tier = %s/%s, want hit/disk", meta.Outcome, meta.Tier)
	}
	if rep.OutputSize != len(cold) {
		t.Fatalf("report output size = %d, want %d", rep.OutputSize, len(cold))
	}
	st := b.Stats()
	if st.PipelineRuns != 0 {
		t.Fatalf("restarted server ran the pipeline %d times, want 0", st.PipelineRuns)
	}
	if st.DiskHits != 1 || st.DiskPromotes != 1 {
		t.Fatalf("disk hits/promotes = %d/%d, want 1/1", st.DiskHits, st.DiskPromotes)
	}
	// Promotion landed in RAM: the repeat is a ram-tier hit.
	_, _, meta, err = b.RewriteMeta(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Outcome != OutcomeHit || meta.Tier != TierRAM {
		t.Fatalf("repeat outcome/tier = %s/%s, want hit/ram", meta.Outcome, meta.Tier)
	}
}

// TestDiskTierCrashRecovery: every class of crash debris is dropped,
// counted as recovered, and the store reopens serving what survived.
func TestDiskTierCrashRecovery(t *testing.T) {
	images := testImages(t)
	cfg := nullCfg()
	dir := t.TempDir()

	tier := openTier(t, dir, 0)
	s := New(Options{Workers: 1, SnapshotBytes: -1, Disk: tier})
	var want [][]byte
	for _, in := range images {
		out, _, err := s.Rewrite(context.Background(), in, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, out)
	}
	s.Close()
	tier.Close()

	// Crash debris, one of each kind:
	// (a) a truncated in-flight temp file,
	if err := os.WriteFile(filepath.Join(dir, "tmp", "deadbeef.tmp"), []byte("half a wri"), 0o644); err != nil {
		t.Fatal(err)
	}
	// (b) a torn journal tail (crash mid-append),
	jf, err := os.OpenFile(filepath.Join(dir, "journal"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jf.WriteString(`{"op":"put","kind":"out","key":"ab12`); err != nil {
		t.Fatal(err)
	}
	jf.Close()
	// (c) an object whose journal entry promises different bytes
	// (truncate it, so the size check drops the entry),
	victimKey := CacheKey(images[0], cfg)
	victimPath := filepath.Join(dir, "objects", victimKey.String()[:2], victimKey.String())
	if err := os.Truncate(victimPath, 3); err != nil {
		t.Fatal(err)
	}
	// (d) an orphaned object file with no journal line.
	orphan := strings.Repeat("ab", 32)
	if err := os.MkdirAll(filepath.Join(dir, "objects", orphan[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "objects", orphan[:2], orphan), []byte("orphan"), 0o644); err != nil {
		t.Fatal(err)
	}

	tier2 := openTier(t, dir, 0)
	st := tier2.Stats()
	if st.Recovered < 4 {
		t.Fatalf("recovered = %d, want >= 4 (tmp + torn line + truncated + orphan)", st.Recovered)
	}
	if st.Entries != len(images)-1 {
		t.Fatalf("reopened tier holds %d entries, want %d", st.Entries, len(images)-1)
	}
	// The damaged entry is gone (miss), the intact ones still verify.
	if _, _, _, ok := tier2.get(victimKey, nil); ok {
		t.Fatal("truncated entry survived recovery")
	}
	for i := 1; i < len(images); i++ {
		data, _, _, ok := tier2.get(CacheKey(images[i], cfg), nil)
		if !ok || !bytes.Equal(data, want[i]) {
			t.Fatalf("image %d: surviving entry unreadable or wrong after recovery", i)
		}
	}
}

// TestDiskTierEvictionAndRestart: the byte budget is enforced LRU-cold-
// first, eviction is journaled, and a reopen sees only the survivors.
func TestDiskTierEvictionAndRestart(t *testing.T) {
	dir := t.TempDir()
	tier := openTier(t, dir, 0)
	blob := func(b byte) []byte { return bytes.Repeat([]byte{b}, 1000) }
	var keys []Key
	for i := 0; i < 4; i++ {
		k := CacheKey([]byte{byte(i)}, nullCfg())
		keys = append(keys, k)
		spillOut(tier, k, blob(byte(i)))
	}
	tier.Close()

	tier2 := openTier(t, dir, 2500) // room for two entries
	st := tier2.Stats()
	if st.Entries != 2 || st.Bytes != 2000 {
		t.Fatalf("after budgeted reopen: %d entries / %d bytes, want 2 / 2000", st.Entries, st.Bytes)
	}
	// The survivors are the most recent puts; evicted keys miss.
	for i, k := range keys {
		_, _, _, ok := tier2.get(k, nil)
		if want := i >= 2; ok != want {
			t.Fatalf("key %d present=%v, want %v", i, ok, want)
		}
	}
	tier2.Close()
	// The journaled deletions hold across another reopen.
	tier3 := openTier(t, dir, 2500)
	if st := tier3.Stats(); st.Entries != 2 {
		t.Fatalf("third open holds %d entries, want 2", st.Entries)
	}
}

// TestDiskTierReopenDropsOversized: an entry larger than the whole
// budget of a reopened tier is evicted on its own, as the RAM cache
// refuses one, instead of flushing the entries that fit; the eviction
// is journaled, so the next open recovers nothing.
func TestDiskTierReopenDropsOversized(t *testing.T) {
	dir := t.TempDir()
	tier := openTier(t, dir, 0)
	small, big := CacheKey([]byte{1}, nullCfg()), CacheKey([]byte{2}, nullCfg())
	spillOut(tier, small, bytes.Repeat([]byte{1}, 1000))
	spillOut(tier, big, bytes.Repeat([]byte{2}, 3000))
	tier.Close()

	tier2 := openTier(t, dir, 2500)
	if st := tier2.Stats(); st.Entries != 1 || st.Bytes != 1000 || st.Evicted != 1 || st.Recovered != 0 {
		t.Fatalf("after reopen: %+v, want 1 entry of 1000 bytes, 1 evicted, 0 recovered", st)
	}
	if _, err := os.Stat(tier2.objectPath(big)); !os.IsNotExist(err) {
		t.Fatalf("oversized object left on disk: %v", err)
	}
	if _, _, _, ok := tier2.get(small, nil); !ok {
		t.Fatal("the entry within budget did not survive the reopen")
	}
	tier2.Close()
	tier3 := openTier(t, dir, 2500)
	if st := tier3.Stats(); st.Entries != 1 || st.Recovered != 0 || st.Evicted != 0 {
		t.Fatalf("third open: %+v, want 1 entry, nothing recovered or evicted", st)
	}
}

// TestChaosDiskTierCorruptQuarantines pins the two-outcome contract for
// fault.DiskTierCorrupt: a corrupted disk read is caught by the digest
// check, the file is quarantined, the entry degrades to a miss, and the
// request is answered by a fresh pipeline run with the same bytes —
// never divergent output.
func TestChaosDiskTierCorruptQuarantines(t *testing.T) {
	in := testImages(t)[1]
	cfg := nullCfg()
	// Find a chaos seed whose schedule fires at this request's disk-read
	// site, folding the candidate injector into the key as the server
	// will.
	var inj *fault.Injector
	for seed := int64(1); seed <= 1000; seed++ {
		cand := fault.NewArmed(seed, fault.DiskTierCorrupt)
		c := cfg
		c.Chaos = cand
		if cand.Fires(fault.DiskTierCorrupt, CacheKey(in, c).site()) {
			inj = cand
			break
		}
	}
	if inj == nil {
		t.Fatal("no firing seed found in 1000 tries")
	}
	dir := t.TempDir()
	tier := openTier(t, dir, 0)
	// Warm the disk tier with a clean server run, then restart with
	// chaos armed and RAM caching off so the read must go to disk.
	warm := New(Options{Workers: 1, SnapshotBytes: -1, Disk: tier, Chaos: inj})
	want, _, err := warm.Rewrite(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm.Close()
	tier.Close()

	tier2 := openTier(t, dir, 0)
	s := New(Options{Workers: 1, CacheBytes: -1, SnapshotBytes: -1, Disk: tier2, Chaos: inj})
	defer s.Close()
	out, _, meta, err := s.RewriteMeta(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Fatal("degraded request returned divergent bytes")
	}
	if meta.Outcome != OutcomeMiss {
		t.Fatalf("outcome = %s, want miss (corruption must degrade)", meta.Outcome)
	}
	st := s.Stats()
	if st.DiskCorrupt != 1 || st.DiskHits != 0 {
		t.Fatalf("disk corrupt/hits = %d/%d, want 1/0", st.DiskCorrupt, st.DiskHits)
	}
	if st.PipelineRuns != 1 {
		t.Fatalf("pipeline runs = %d, want 1 (the verified fallback)", st.PipelineRuns)
	}
	// The poisoned file moved to quarantine, and the verified fallback's
	// re-spill replaced it: after a restart the key reads back, digest-
	// verified from disk, as the clean bytes.
	key := CacheKey(in, s.effective(cfg))
	if _, err := os.Stat(filepath.Join(dir, "quarantine", key.String())); err != nil {
		t.Fatalf("corrupt object not quarantined: %v", err)
	}
	tier2.Close()
	tier3 := openTier(t, dir, 0)
	data, _, _, ok := tier3.get(key, nil)
	if !ok || !bytes.Equal(data, want) {
		t.Fatalf("after restart the key reads back ok=%v, equal=%v; want the clean bytes", ok, bytes.Equal(data, want))
	}
	if st := tier3.Stats(); st.Hits != 1 {
		t.Fatalf("disk hits after restart = %d, want 1", st.Hits)
	}
}

// openPausedTier opens a disk tier whose writer has not started, so
// every spill stays pending until the returned start function runs.
func openPausedTier(t *testing.T, dir string) (tier *DiskTier, start func()) {
	t.Helper()
	tier, err := openDiskTier(dir, 0)
	if err != nil {
		t.Fatalf("open disk tier: %v", err)
	}
	var started bool
	start = func() {
		if !started {
			started = true
			tier.startWriter()
		}
	}
	t.Cleanup(func() { start(); tier.Close() })
	return tier, start
}

// TestDiskTierPendingRead: a repeat that arrives while its output spill
// is still queued is answered from the pending job — a disk-tier hit
// with no second pipeline run — and the spill still lands on disk.
func TestDiskTierPendingRead(t *testing.T) {
	in := testImages(t)[0]
	cfg := nullCfg()
	dir := t.TempDir()
	tier, start := openPausedTier(t, dir)
	s := New(Options{Workers: 1, CacheBytes: -1, SnapshotBytes: -1, Disk: tier})
	defer s.Close()
	cold, _, err := s.Rewrite(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, _, meta, err := s.RewriteMeta(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Outcome != OutcomeHit || meta.Tier != TierDisk {
		t.Fatalf("repeat outcome/tier = %s/%s, want hit/disk", meta.Outcome, meta.Tier)
	}
	if !bytes.Equal(out, cold) {
		t.Fatal("pending answer diverges from the rewrite")
	}
	st := s.Stats()
	if st.PipelineRuns != 1 || st.DiskPendingHits != 1 || st.DiskHits != 0 {
		t.Fatalf("pipeline runs/pending hits/disk hits = %d/%d/%d, want 1/1/0",
			st.PipelineRuns, st.DiskPendingHits, st.DiskHits)
	}
	out[0] ^= 0xFF // a caller owns its answer; the pending job must not change

	start()
	tier.Close()
	tier2 := openTier(t, dir, 0)
	data, _, _, ok := tier2.get(CacheKey(in, cfg), nil)
	if !ok || !bytes.Equal(data, cold) {
		t.Fatal("the spill answered while pending did not land on disk intact")
	}
}

// testSnap is a minimal well-formed snapshot whose n-byte images are
// filled with fill.
func testSnap(fill byte, n int) *core.Snapshot {
	s := &core.Snapshot{
		Fingerprint: "test",
		Input:       bytes.Repeat([]byte{fill}, n),
		Output:      bytes.Repeat([]byte{fill ^ 0xFF}, n),
	}
	s.InDigest, s.OutDigest = sha256.Sum256(s.Input), sha256.Sum256(s.Output)
	return s
}

// TestDiskTierSnapshotSpillsCoalesce: snapshot spills to one ancestor
// slot that arrive before the writer drains are one write, of the
// newest snapshot, which a restart reads back; deleting a slot discards
// its pending spill.
func TestDiskTierSnapshotSpillsCoalesce(t *testing.T) {
	dir := t.TempDir()
	tier, start := openPausedTier(t, dir)
	older, newer := testSnap(1, 100), testSnap(2, 80)
	tier.putSnapAsync("slot", older, "optimized")
	tier.putSnapAsync("slot", newer, "diversity")
	tier.putSnapAsync("gone", older, "optimized")
	tier.delSnap("gone")
	if n := len(tier.wq); n != 2 {
		t.Fatalf("queued jobs = %d, want 2 (one per slot)", n)
	}
	if snap, layout, ok := tier.getSnap("slot", nil); !ok || snap != newer || layout != "diversity" {
		t.Fatalf("pending read ok=%v layout=%q, want the newest snapshot itself", ok, layout)
	}
	if _, _, ok := tier.getSnap("gone", nil); ok {
		t.Fatal("deleted slot still answers from its pending spill")
	}

	start()
	tier.Close()
	journal, err := os.ReadFile(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if puts := strings.Count(string(journal), `"op":"put"`); puts != 1 {
		t.Fatalf("journal holds %d puts, want 1", puts)
	}
	tier2 := openTier(t, dir, 0)
	if snap, layout, ok := tier2.getSnap("slot", nil); !ok || !bytes.Equal(snap.Marshal(), newer.Marshal()) || layout != "diversity" {
		t.Fatalf("after restart ok=%v layout=%q, want the newest snapshot", ok, layout)
	}
	if _, _, ok := tier2.getSnap("gone", nil); ok {
		t.Fatal("deleted slot's spill was written")
	}
	if st := tier2.Stats(); st.Hits != 1 || st.PendingHits != 0 {
		t.Fatalf("hits/pending hits = %d/%d, want 1/0", st.Hits, st.PendingHits)
	}
}

// TestDiskTierSnapshotSpill: placement snapshots spill to disk, so a
// restarted server still answers an edited input via the delta path.
func TestDiskTierSnapshotSpill(t *testing.T) {
	base, edited := deltaImages(t, 1)
	cfg := zipr.Config{Transforms: []zipr.Transform{zipr.CFI()}}
	dir := t.TempDir()

	tier := openTier(t, dir, 0)
	a := New(Options{Workers: 1, Disk: tier})
	if _, _, meta, err := a.RewriteMeta(context.Background(), base, cfg); err != nil || meta.Outcome != OutcomeMiss {
		t.Fatalf("base request: outcome %s err %v, want miss", meta.Outcome, err)
	}
	a.Close()
	tier.Close()

	tier2 := openTier(t, dir, 0)
	b := New(Options{Workers: 1, Disk: tier2})
	defer b.Close()
	out, _, meta, err := b.RewriteMeta(context.Background(), edited[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Outcome != OutcomeDelta {
		t.Fatalf("edited request outcome = %s, want delta (snapshot restored from disk)", meta.Outcome)
	}
	// Byte identity against a cold server that never saw the base.
	fresh := New(Options{Workers: 1})
	defer fresh.Close()
	want, _, err := fresh.Rewrite(context.Background(), edited[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Fatal("disk-restored delta answer diverges from a from-scratch rewrite")
	}
}

// TestDiskTierConcurrentSpillsAndReads: spills and reads of overlapping
// keys from several goroutines, with the writer draining meanwhile,
// only ever answer a key's own bytes, whether from a pending job or
// from disk, and every key is on disk after Close.
func TestDiskTierConcurrentSpillsAndReads(t *testing.T) {
	dir := t.TempDir()
	tier := openTier(t, dir, 0)
	const keys, workers, rounds = 8, 4, 50
	blob := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 512+i) }
	key := func(i int) Key { return CacheKey([]byte{byte(i)}, nullCfg()) }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % keys
				spillOut(tier, key(i), blob(i))
				j := (w*3 + r) % keys
				if data, _, _, ok := tier.get(key(j), nil); ok && !bytes.Equal(data, blob(j)) {
					t.Errorf("key %d answered with another key's bytes", j)
				}
			}
		}(w)
	}
	wg.Wait()
	tier.Close()
	if st := tier.Stats(); st.WriteDropped != 0 {
		t.Fatalf("%d spills dropped; the queue should hold this load", st.WriteDropped)
	}
	tier2 := openTier(t, dir, 0)
	for i := 0; i < keys; i++ {
		if data, _, _, ok := tier2.get(key(i), nil); !ok || !bytes.Equal(data, blob(i)) {
			t.Fatalf("key %d missing or wrong after restart", i)
		}
	}
}

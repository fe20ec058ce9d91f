package serve

// Disk-tier tests: spilled outputs survive a restart and answer an
// empty-RAM server without a pipeline run; crash debris (truncated tmp
// files, objects too short for a digest, names that are not keys) is
// dropped and counted on reopen; corruption is quarantined and degrades
// to a miss (never wrong bytes); eviction honors the byte budget; and
// placement snapshots spill so delta ancestry survives a restart too.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"zipr"
	"zipr/internal/core"
	"zipr/internal/fault"
)

// diskGet is DiskTier.get with the image flattened: a pending spill's
// bytes or a disk read's, with their digest.
func diskGet(tier *DiskTier, key Key) ([]byte, [sha256.Size]byte, bool) {
	raw, img, sum, ok := tier.get(key, nil)
	if ok && raw == nil {
		raw = img.Bytes()
	}
	return raw, sum, ok
}

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

// spillOut spills data as an output image under key.
func spillOut(tier *DiskTier, key Key, data []byte) {
	tier.putAsync(key, core.NewImage(data), sha256.Sum256(data))
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

// TestDiskTierCrashRecovery: every class of debris is dropped, counted
// as recovered, and the store reopens serving what survived. An object
// file is its own record: one that carries a valid digest is indexed
// and served, whatever wrote it.
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

	// Debris, one of each kind:
	// (a) a truncated in-flight temp file,
	if err := os.WriteFile(filepath.Join(dir, "tmp", "deadbeef.tmp"), []byte("half a wri"), 0o644); err != nil {
		t.Fatal(err)
	}
	// (b) an object too short to hold its digest trailer,
	victimKey := CacheKey(images[0], cfg)
	victimPath := filepath.Join(dir, "objects", victimKey.String()[:2], victimKey.String())
	if err := os.Truncate(victimPath, trailerSize-1); err != nil {
		t.Fatal(err)
	}
	// (c) a file whose name is not a key.
	if err := os.WriteFile(filepath.Join(dir, "objects", victimKey.String()[:2], "stray"), []byte("not an object"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Not debris: a payload followed by its digest, written by hand.
	extra, extraData := CacheKey([]byte("extra"), cfg), []byte("a self-describing object")
	sum := sha256.Sum256(extraData)
	if err := os.MkdirAll(filepath.Dir(tier.objectPath(extra)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tier.objectPath(extra), append(append([]byte(nil), extraData...), sum[:]...), 0o644); err != nil {
		t.Fatal(err)
	}

	tier2 := openTier(t, dir, 0)
	st := tier2.Stats()
	if st.Recovered != 3 {
		t.Fatalf("recovered = %d, want 3 (tmp + short object + stray name)", st.Recovered)
	}
	if st.Entries != len(images) {
		t.Fatalf("reopened tier holds %d entries, want %d", st.Entries, len(images))
	}
	// The damaged entry is gone (miss), the intact ones still verify.
	if _, _, ok := diskGet(tier2, victimKey); ok {
		t.Fatal("truncated entry survived recovery")
	}
	for i := 1; i < len(images); i++ {
		data, _, ok := diskGet(tier2, CacheKey(images[i], cfg))
		if !ok || !bytes.Equal(data, want[i]) {
			t.Fatalf("image %d: surviving entry unreadable or wrong after recovery", i)
		}
	}
	if data, got, ok := diskGet(tier2, extra); !ok || !bytes.Equal(data, extraData) || got != sum {
		t.Fatal("a well-formed object with no other record was not served")
	}
	if st := tier2.Stats(); st.Corrupt != 0 {
		t.Fatalf("corrupt = %d, want 0", st.Corrupt)
	}
}

// TestDiskTierPurgesJournaledFormat: a directory written in the older
// format — a JSONL journal beside objects with no digest trailer — is
// purged at open: every object is removed and counted as recovered,
// the journal goes last, nothing is served from it, and the directory
// then works as a store.
func TestDiskTierPurgesJournaledFormat(t *testing.T) {
	dir := t.TempDir()
	var journal []byte
	var keys []Key
	for i := 0; i < 3; i++ {
		k := CacheKey([]byte{byte(i)}, nullCfg())
		payload := bytes.Repeat([]byte{byte(i + 1)}, 100*(i+1))
		sum := sha256.Sum256(payload)
		path := filepath.Join(dir, "objects", k.String()[:2], k.String())
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, payload, 0o644); err != nil {
			t.Fatal(err)
		}
		journal = fmt.Appendf(journal, `{"op":"put","kind":"out","key":"%s","size":%d,"sum":"%x","layout":"optimized"}`+"\n", k, len(payload), sum)
		keys = append(keys, k)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal"), journal, 0o644); err != nil {
		t.Fatal(err)
	}

	tier := openTier(t, dir, 0)
	if st := tier.Stats(); st.Recovered != 3 || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("after open: %+v, want 3 recovered, no entries", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "journal")); !os.IsNotExist(err) {
		t.Fatalf("journal left in place: %v", err)
	}
	for i, k := range keys {
		if _, _, ok := diskGet(tier, k); ok {
			t.Fatalf("key %d served from the journaled format", i)
		}
		if _, err := os.Stat(tier.objectPath(k)); !os.IsNotExist(err) {
			t.Fatalf("key %d: object left in place: %v", i, err)
		}
	}
	spillOut(tier, keys[0], []byte("fresh"))
	tier.Close()
	tier2 := openTier(t, dir, 0)
	if data, _, ok := diskGet(tier2, keys[0]); !ok || string(data) != "fresh" {
		t.Fatal("the purged directory does not serve a new spill")
	}
	if st := tier2.Stats(); st.Recovered != 0 {
		t.Fatalf("second open recovered %d, want 0", st.Recovered)
	}
}

// TestDiskTierEvictionAndRestart: the byte budget is enforced LRU-cold-
// first in write order, eviction removes the objects, and a reopen sees
// only the survivors.
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
		_, _, ok := diskGet(tier2, k)
		if want := i >= 2; ok != want {
			t.Fatalf("key %d present=%v, want %v", i, ok, want)
		}
	}
	tier2.Close()
	// The deletions hold across another reopen.
	tier3 := openTier(t, dir, 2500)
	if st := tier3.Stats(); st.Entries != 2 {
		t.Fatalf("third open holds %d entries, want 2", st.Entries)
	}
}

// TestDiskTierReopenDropsOversized: an entry larger than the whole
// budget of a reopened tier is evicted on its own, as the RAM cache
// refuses one, instead of flushing the entries that fit; its object is
// removed, so the next open recovers nothing.
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
	if _, _, ok := diskGet(tier2, small); !ok {
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
	data, _, ok := diskGet(tier3, key)
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
	data, _, ok := diskGet(tier2, CacheKey(in, cfg))
	if !ok || !bytes.Equal(data, cold) {
		t.Fatal("the spill answered while pending did not land on disk intact")
	}
}

// testSnap is a minimal well-formed snapshot whose n-byte images are
// filled with fill.
func testSnap(fill byte, n int) *core.Snapshot {
	s := &core.Snapshot{
		Fingerprint: "test",
		Input:       core.NewImage(bytes.Repeat([]byte{fill}, n)),
		Output:      core.NewImage(bytes.Repeat([]byte{fill ^ 0xFF}, n)),
	}
	s.InDigest, s.OutDigest = sha256.Sum256(s.Input.Bytes()), sha256.Sum256(s.Output.Bytes())
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
	tier.putSnapAsync("slot", older)
	tier.putSnapAsync("slot", newer)
	tier.putSnapAsync("gone", older)
	tier.delSnap("gone")
	if n := len(tier.wq); n != 2 {
		t.Fatalf("queued jobs = %d, want 2 (one per slot)", n)
	}
	if snap, ok := tier.getSnap("slot", nil); !ok || snap != newer {
		t.Fatalf("pending read ok=%v, want the newest snapshot itself", ok)
	}
	if _, ok := tier.getSnap("gone", nil); ok {
		t.Fatal("deleted slot still answers from its pending spill")
	}

	start()
	tier.Close()
	objs, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if slot := tier.objectPath(snapDiskKey("slot")); len(objs) != 1 || objs[0] != slot {
		t.Fatalf("objects on disk = %v, want only the slot's", objs)
	}
	tier2 := openTier(t, dir, 0)
	if snap, ok := tier2.getSnap("slot", nil); !ok || !bytes.Equal(snap.Marshal(), newer.Marshal()) {
		t.Fatalf("after restart ok=%v, want the newest snapshot", ok)
	}
	if _, ok := tier2.getSnap("gone", nil); ok {
		t.Fatal("deleted slot's spill was written")
	}
	if st := tier2.Stats(); st.Hits != 1 || st.PendingHits != 0 {
		t.Fatalf("hits/pending hits = %d/%d, want 1/0", st.Hits, st.PendingHits)
	}
}

// TestDiskTierDeletesOldFormatSnapshot: a snapshot object of an older
// wire format (the spilled blob with its version field set to 4, under
// a valid trailer) reads as stale: the tier answers no snapshot for its
// slot and deletes the object.
func TestDiskTierDeletesOldFormatSnapshot(t *testing.T) {
	dir := t.TempDir()
	tier := openTier(t, dir, 0)
	tier.putSnapAsync("slot", testSnap(1, 100))
	tier.Close()
	path := tier.objectPath(snapDiskKey("slot"))
	obj, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := obj[:len(obj)-sha256.Size]
	binary.LittleEndian.PutUint32(payload[4:], 4)
	sum := sha256.Sum256(payload)
	if err := os.WriteFile(path, append(payload, sum[:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	tier2 := openTier(t, dir, 0)
	if _, ok := tier2.getSnap("slot", nil); ok {
		t.Fatal("a version 4 snapshot object answered a read")
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("the version 4 snapshot object is still on disk (stat: %v)", err)
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
				if data, _, ok := diskGet(tier, key(j)); ok && !bytes.Equal(data, blob(j)) {
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
		if data, _, ok := diskGet(tier2, key(i)); !ok || !bytes.Equal(data, blob(i)) {
			t.Fatalf("key %d missing or wrong after restart", i)
		}
	}
}

// TestDiskHitLayoutMatchesCold: the tier keeps no report, so a disk hit
// — and a delta from a snapshot read back from disk — names its layout
// from the request. Under every layout that is the name a cold rewrite
// reports.
func TestDiskHitLayoutMatchesCold(t *testing.T) {
	base, edited := deltaImages(t, 1)
	for _, lay := range []zipr.LayoutKind{"", zipr.LayoutOptimized, zipr.LayoutDiversity, zipr.LayoutProfileGuided} {
		cfg := zipr.Config{Transforms: []zipr.Transform{zipr.CFI()}, Layout: lay, Seed: 7}
		var cold []*zipr.Report
		for _, in := range [][]byte{base, edited[0]} {
			_, rep, err := zipr.Rewrite(in, cfg)
			if err != nil {
				t.Fatalf("layout %q: %v", lay, err)
			}
			cold = append(cold, rep)
		}
		dir := t.TempDir()
		tier := openTier(t, dir, 0)
		a := New(Options{Workers: 1, Disk: tier})
		if _, _, err := a.Rewrite(context.Background(), base, cfg); err != nil {
			t.Fatal(err)
		}
		a.Close()
		tier.Close()

		tier2 := openTier(t, dir, 0)
		b := New(Options{Workers: 1, Disk: tier2})
		for i, want := range []struct{ outcome, tier string }{{OutcomeHit, TierDisk}, {OutcomeDelta, ""}} {
			in := [][]byte{base, edited[0]}[i]
			_, rep, meta, err := b.RewriteMeta(context.Background(), in, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if meta.Outcome != want.outcome || meta.Tier != want.tier {
				t.Fatalf("layout %q request %d: outcome/tier = %s/%s, want %s/%s", lay, i, meta.Outcome, meta.Tier, want.outcome, want.tier)
			}
			if rep.Layout != cold[i].Layout {
				t.Fatalf("layout %q request %d: report layout %q, cold rewrite's %q", lay, i, rep.Layout, cold[i].Layout)
			}
		}
		b.Close()
	}
}

// FuzzDiskTierOpen fills a tier directory with arbitrary files and
// opens it. Each record of the input is a control byte, a length byte
// and that many payload bytes. The control byte's low two bits place
// the payload: 0 an output object, 1 a snapshot slot object, 2 a tmp
// file, 3 a file whose name is not a key. Bit 2 appends the payload's
// true digest, bit 3 moves an object to the wrong subdirectory, bit 4
// writes a journal file beside the objects, and bit 5 of the first
// record shrinks the budget to 256 bytes. Open, get and getSnap must
// not panic, get must never return bytes whose SHA-256 differs from the
// sum beside them, and a second open finds nothing left to recover or
// evict.
func FuzzDiskTierOpen(f *testing.F) {
	f.Add([]byte{0, 3, 'a', 'b', 'c'})
	f.Add([]byte{4, 5, 'h', 'e', 'l', 'l', 'o', 5, 2, 1, 2, 2, 1, 'x', 3, 1, 'y'})
	f.Add(append([]byte{0x24, 40}, make([]byte, 40)...))
	f.Add([]byte{0x14, 2, 'o', 'k', 0x0c, 1, 'z', 4, 0})
	f.Add(append([]byte{5, byte(len(testSnap(3, 10).Marshal()))}, testSnap(3, 10).Marshal()...))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		for _, sub := range []string{"objects", "tmp"} {
			if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		budget := int64(0)
		if len(data) > 0 && data[0]&0x20 != 0 {
			budget = 256
		}
		var keys []Key
		var slots []string
		for i := 0; len(data) >= 2 && i < 8; i++ {
			ctl, n := data[0], int(data[1])
			data = data[2:]
			payload := data[:min(n, len(data))]
			data = data[len(payload):]
			if ctl&4 != 0 {
				sum := sha256.Sum256(payload)
				payload = append(append([]byte(nil), payload...), sum[:]...)
			}
			var path string
			switch ctl & 3 {
			case 0, 1:
				key := CacheKey([]byte{byte(i)}, nullCfg())
				if ctl&3 == 1 {
					slot := fmt.Sprint("slot", i)
					key = snapDiskKey(slot)
					slots = append(slots, slot)
				} else {
					keys = append(keys, key)
				}
				h, sub := key.String(), key.String()[:2]
				if ctl&8 != 0 {
					sub = "zz"
				}
				path = filepath.Join(dir, "objects", sub, h)
			case 2:
				path = filepath.Join(dir, "tmp", fmt.Sprint(i, ".tmp"))
			case 3:
				path = filepath.Join(dir, "objects", "ab", fmt.Sprintf("%x", payload[:min(4, len(payload))]))
			}
			if ctl&0x10 != 0 {
				if err := os.WriteFile(filepath.Join(dir, "journal"), []byte("{}\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			// A path another record already took as a file or a
			// directory stays as it is.
			if os.MkdirAll(filepath.Dir(path), 0o755) == nil {
				os.WriteFile(path, payload, 0o644)
			}
		}
		tier, err := OpenDiskTier(dir, budget)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if data, sum, ok := diskGet(tier, k); ok && sha256.Sum256(data) != sum {
				t.Fatalf("key %s: served bytes differ from their sum", k)
			}
		}
		for _, slot := range slots {
			tier.getSnap(slot, nil)
		}
		st := tier.Stats()
		if st.Bytes > tier.idx.budget {
			t.Fatalf("stored %d bytes over a budget of %d", st.Bytes, tier.idx.budget)
		}
		tier.Close()
		again, err := OpenDiskTier(dir, budget)
		if err != nil {
			t.Fatal(err)
		}
		defer again.Close()
		if st := again.Stats(); st.Recovered != 0 || st.Evicted != 0 {
			t.Fatalf("second open: %+v, want nothing recovered or evicted", st)
		}
	})
}

// TestDiskTierReopenKeepsWriteOrder: recency across a restart is write
// order, also for objects written faster than the filesystem clock
// ticks, which would otherwise share a modification time.
func TestDiskTierReopenKeepsWriteOrder(t *testing.T) {
	dir := t.TempDir()
	tier := openTier(t, dir, 0)
	const n = 16
	key := func(i int) Key { return CacheKey([]byte{byte(i)}, nullCfg()) }
	for i := 0; i < n; i++ {
		spillOut(tier, key(i), bytes.Repeat([]byte{byte(i)}, 100))
	}
	tier.Close()
	tier2 := openTier(t, dir, 0)
	var order []Key
	tier2.idx.each(func(e *diskNode) { order = append(order, e.key) })
	for i := 0; i < n; i++ {
		if i >= len(order) || order[i] != key(i) {
			t.Fatalf("reopened index, oldest first, differs from write order at %d", i)
		}
	}
}

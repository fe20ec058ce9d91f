package serve

// Carried-digest tests: the server hashes each image once, where it is
// made, and hands the digest on (to the cache entry, the disk spill and
// the rebased snapshot) instead of hashing again. These tests check
// that every digest so carried is the real digest of the bytes it
// stands for, on every path that stores an image.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"os"
	"testing"
	"time"

	"zipr"
	"zipr/internal/isa"
)

// dropRAM removes in's entry from the RAM cache, so its next request
// goes to the disk tier.
func dropRAM(t *testing.T, s *Server, in []byte, cfg zipr.Config) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.cache.peek(CacheKey(in, s.effective(cfg)))
	if n == nil {
		t.Fatal("no RAM entry to drop")
	}
	s.cache.remove(n)
}

// checkCarriedDigests recomputes every digest s holds: each RAM entry's
// sum against its bytes, each stored snapshot with Verify, and each
// disk object's trailer against its payload. It also requires that no
// integrity check fired, and that each store holds something.
func checkCarriedDigests(t *testing.T, s *Server) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache.each(func(n *lruNode[entry]) {
		if sha256.Sum256(n.val.img.Bytes()) != n.val.sum {
			t.Errorf("RAM entry %s: sum is not the digest of its bytes", n.key)
		}
	})
	s.snaps.lru.each(func(n *snapNode) {
		if err := n.val.snap.Verify(); err != nil {
			t.Errorf("stored snapshot %s: %v", n.key, err)
		}
	})
	d := s.disk
	d.mu.Lock()
	defer d.mu.Unlock()
	d.idx.each(func(n *diskNode) {
		raw, err := os.ReadFile(d.objectPath(n.key))
		if err != nil || int64(len(raw)) != n.size+trailerSize {
			t.Errorf("disk entry %s: object of %d bytes, want %d payload bytes and the trailer (err %v)", n.key, len(raw), n.size, err)
			return
		}
		if payload := raw[:n.size]; sha256.Sum256(payload) != [sha256.Size]byte(raw[n.size:]) {
			t.Errorf("disk entry %s: trailer is not the digest of its payload", n.key)
		}
	})
	if s.cache.len() == 0 || s.snaps.lru.len() == 0 || d.idx.len() == 0 {
		t.Fatalf("RAM/snapshot/disk entries = %d/%d/%d; the check is vacuous", s.cache.len(), s.snaps.lru.len(), d.idx.len())
	}
	if st := s.stats; st.Corrupt != 0 || st.DeltaStale != 0 || d.stats.Corrupt != 0 {
		t.Fatalf("corrupt/stale/disk corrupt = %d/%d/%d, want 0/0/0", st.Corrupt, st.DeltaStale, d.stats.Corrupt)
	}
}

// TestCarriedDigestsAreReal runs a fault-free script over every path
// that stores an image — a miss, a RAM hit, a small ZVM-32 and a large
// ZVM-64 delta, a singleflight follower, disk promotions from a pending
// spill and from a file, and a restart whose delta starts from a
// snapshot read back from disk — and then recomputes every digest the
// server and its disk tier hold.
func TestCarriedDigestsAreReal(t *testing.T) {
	small, smallEd := familyImages(t, isa.ZVM32, 12, 2)
	large, largeEd := familyImages(t, isa.ZVM64, 120, 1)
	fresh := testImages(t)[0]
	cfg32, cfg64 := archCfg(isa.ZVM32), archCfg(isa.ZVM64)
	want := coldRewrites(t, cfg32, small, smallEd[0], smallEd[1], fresh)
	wantLarge := coldRewrites(t, cfg64, large, largeEd[0])

	dir := t.TempDir()
	tier, start := openPausedTier(t, dir)
	s := New(Options{Workers: 1, Disk: tier})
	askScribble(t, s, small, cfg32, want[0], OutcomeMiss, "")
	askScribble(t, s, small, cfg32, want[0], OutcomeHit, TierRAM)
	askScribble(t, s, smallEd[0], cfg32, want[1], OutcomeDelta, "")
	askScribble(t, s, large, cfg64, wantLarge[0], OutcomeMiss, "")
	askScribble(t, s, largeEd[0], cfg64, wantLarge[1], OutcomeDelta, "")
	dropRAM(t, s, small, cfg32)
	askScribble(t, s, small, cfg32, want[0], OutcomeHit, TierDisk) // pending spill

	// A singleflight follower: hold the only worker so the leader waits
	// in admission while the follower joins it.
	s.sem <- struct{}{}
	key := CacheKey(fresh, s.effective(cfg32))
	outcomes := make(chan string, 2)
	ask := func() {
		out, _, meta, err := s.RewriteMeta(context.Background(), fresh, cfg32)
		if err != nil || !bytes.Equal(out, want[3]) {
			t.Errorf("%s answer: err %v, equal %v", meta.Outcome, err, bytes.Equal(out, want[3]))
		}
		scribble(out)
		outcomes <- meta.Outcome
	}
	go ask()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		led := s.inflight[key] != nil
		s.mu.Unlock()
		if led {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the leader never registered")
		}
	}
	go ask()
	for s.Stats().Shared == 0 {
		time.Sleep(time.Millisecond)
	}
	<-s.sem
	if got := map[string]bool{<-outcomes: true, <-outcomes: true}; !got[OutcomeMiss] || !got[OutcomeShared] {
		t.Fatalf("outcomes %v, want one miss and one shared", got)
	}

	start()
	waitDrained(t, tier)
	dropRAM(t, s, smallEd[0], cfg32)
	askScribble(t, s, smallEd[0], cfg32, want[1], OutcomeHit, TierDisk) // from its file
	if st := s.Stats(); st.DiskPromotes != 2 || st.DiskPendingHits != 1 || st.DiskHits != 1 {
		t.Fatalf("promotes/pending hits/disk hits = %d/%d/%d, want 2/1/1", st.DiskPromotes, st.DiskPendingHits, st.DiskHits)
	}
	checkCarriedDigests(t, s)
	s.Close()
	tier.Close()

	// A restarted server answers the next edit from the snapshot it
	// reads back from disk.
	tier2 := openTier(t, dir, 0)
	s2 := New(Options{Workers: 1, Disk: tier2})
	defer s2.Close()
	askScribble(t, s2, smallEd[1], cfg32, want[2], OutcomeDelta, "")
	if st := s2.Stats(); st.DiskHits != 1 {
		t.Fatalf("disk hits after restart = %d, want 1 (the ancestor snapshot)", st.DiskHits)
	}
	waitDrained(t, tier2)
	checkCarriedDigests(t, s2)
}

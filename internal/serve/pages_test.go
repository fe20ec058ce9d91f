package serve

// Page accounting: each store charges a page, and a unit or span table,
// once while any of its entries holds it, so a lineage of snapshots
// rebased from one another costs its distinct bytes, eviction frees
// only what no other entry holds, and the byte budget evicts by
// distinct bytes.

import (
	"context"
	"crypto/sha256"
	"testing"
	"unsafe"

	"zipr"
	"zipr/internal/core"
	"zipr/internal/isa"
)

// distinctBytes is what a store holding snaps must charge: each
// snapshot's fixed part, plus each page and each unit and span table
// once, however many of snaps hold it. A unit costs 16 bytes and a span
// 12, their real sizes.
func distinctBytes(snaps ...*core.Snapshot) int64 {
	seen := map[unsafe.Pointer]bool{}
	var n int64
	once := func(p unsafe.Pointer, size int) {
		if !seen[p] {
			seen[p] = true
			n += int64(size)
		}
	}
	for _, s := range snaps {
		n += int64(len(s.Fingerprint) + 128)
		for _, p := range append(s.Input.Pages(), s.Output.Pages()...) {
			once(unsafe.Pointer(unsafe.SliceData(p)), len(p))
		}
		once(unsafe.Pointer(unsafe.SliceData(s.Units)), 16*len(s.Units))
		once(unsafe.Pointer(unsafe.SliceData(s.Spans)), 12*len(s.Spans))
	}
	return n
}

// lineage returns the snapshot A of a rewrite of a many-page program,
// B rebased from A by a delta answer to an edit, and C rebased from B
// to another edit.
func lineage(t *testing.T) (a, b, c *core.Snapshot) {
	t.Helper()
	base, edited := familyImages(t, isa.ZVM32, 400, 2)
	cfg := nullCfg()
	cfg.CaptureSnapshot = true
	_, rep, err := zipr.Rewrite(base, cfg)
	if err != nil || rep.Snapshot == nil {
		t.Fatalf("capture: snapshot %v, err %v", rep != nil && rep.Snapshot != nil, err)
	}
	a = rep.Snapshot
	rebase := func(s *core.Snapshot, in []byte) *core.Snapshot {
		out, _, err := s.Apply(in)
		if err != nil {
			t.Fatal(err)
		}
		return s.Rebase(in, sha256.Sum256(in), out)
	}
	b = rebase(a, edited[0])
	return a, b, rebase(b, edited[1])
}

func TestSnapStoreChargesDistinctBytes(t *testing.T) {
	a, b, c := lineage(t)
	if a.SizeBytes() != distinctBytes(a) {
		t.Fatalf("SizeBytes = %d, want %d", a.SizeBytes(), distinctBytes(a))
	}
	all := distinctBytes(a, b, c)
	if sum := a.SizeBytes() + b.SizeBytes() + c.SizeBytes(); 2*all > sum {
		t.Fatalf("the lineage holds %d distinct bytes of %d, want at most half: the rebased snapshots share too little", all, sum)
	}
	// Each snapshot under its own ancestor key, so only the budget
	// evicts.
	put := func(st *snapStore, id byte, s *core.Snapshot) int64 {
		return st.put(Key{id}, snapEntry{anc: ancKey{inLen: int(id)}, snap: s}, s.SizeBytes())
	}

	st := newSnapStore(1 << 30)
	for i, s := range []*core.Snapshot{a, b, c} {
		put(st, byte(i+1), s)
		if want := distinctBytes([]*core.Snapshot{a, b, c}[:i+1]...); st.lru.bytes != want {
			t.Fatalf("after %d snapshots the store charges %d bytes, want the %d distinct bytes held", i+1, st.lru.bytes, want)
		}
	}
	// Evicting A frees its fixed part and the pages neither B nor C
	// holds: the input page and output pages its descendants' edits
	// replaced.
	st.remove(st.lru.peek(Key{1}))
	if want := distinctBytes(b, c); st.lru.bytes != want {
		t.Fatalf("after evicting A the store charges %d bytes, want %d", st.lru.bytes, want)
	}
	if freed := all - st.lru.bytes; freed >= a.SizeBytes()/2 {
		t.Fatalf("evicting A freed %d of its %d bytes, want less than half", freed, a.SizeBytes())
	}
	st.remove(st.lru.peek(Key{2}))
	st.remove(st.lru.peek(Key{3}))
	if st.lru.bytes != 0 || len(st.lru.nodes) != 0 {
		t.Fatalf("an empty store charges %d bytes for %d snapshots", st.lru.bytes, len(st.lru.nodes))
	}

	// A budget of exactly the lineage's distinct bytes holds all three,
	// although their sizes add up to far more; one byte less evicts the
	// coldest, A, alone.
	st = newSnapStore(all)
	for i, s := range []*core.Snapshot{a, b, c} {
		if ev := put(st, byte(i+1), s); ev != 0 {
			t.Fatalf("a budget of the distinct bytes evicted %d snapshots", ev)
		}
	}
	st = newSnapStore(all - 1)
	put(st, 1, a)
	put(st, 2, b)
	if ev := put(st, 3, c); ev != 1 || st.lru.peek(Key{1}) != nil || st.lru.bytes != distinctBytes(b, c) {
		t.Fatalf("one byte short: evicted %d, A stored %v, charged %d; want 1, false, %d",
			ev, st.lru.peek(Key{1}) != nil, st.lru.bytes, distinctBytes(b, c))
	}
}

// TestSnapBytesIsDistinct: served through a Server, the lineage's
// Stats.SnapBytes is the distinct bytes its store holds, and the RAM
// cache charges each page of its three answers once.
func TestSnapBytesIsDistinct(t *testing.T) {
	base, edited := familyImages(t, isa.ZVM32, 400, 2)
	cfg := nullCfg()
	s := New(Options{Workers: 1})
	defer s.Close()
	var sizes int64
	for _, in := range [][]byte{base, edited[0], edited[1]} {
		out, _, err := s.Rewrite(context.Background(), in, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sizes += int64(len(out))
	}
	st := s.Stats()
	if st.DeltaHits != 2 || st.SnapEntries != 3 {
		t.Fatalf("delta hits/snapshots = %d/%d, want 2/3", st.DeltaHits, st.SnapEntries)
	}
	var snaps []*core.Snapshot
	var imgs []core.Image
	s.mu.Lock()
	s.snaps.lru.each(func(n *snapNode) { snaps = append(snaps, n.val.snap) })
	s.cache.each(func(n *lruNode[entry]) { imgs = append(imgs, n.val.img) })
	s.mu.Unlock()
	if want := distinctBytes(snaps...); st.SnapBytes != want {
		t.Fatalf("SnapBytes = %d, want the %d distinct bytes held", st.SnapBytes, want)
	}
	pages := map[unsafe.Pointer]int{}
	for _, img := range imgs {
		for _, p := range img.Pages() {
			pages[unsafe.Pointer(unsafe.SliceData(p))] = len(p)
		}
	}
	var want int64
	for _, n := range pages {
		want += int64(n)
	}
	if st.CacheBytes != want || 2*want > sizes {
		t.Fatalf("CacheBytes = %d, want the %d distinct bytes of answers %d bytes long, at most half of them", st.CacheBytes, want, sizes)
	}
}

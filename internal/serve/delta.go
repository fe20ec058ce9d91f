package serve

// Delta serving: placement snapshots let the server answer a request
// whose input is a small edit of a previously rewritten input without
// running the pipeline (core.Snapshot, DESIGN.md §11).
//
// Snapshots live on their own byte budget (Options.SnapshotBytes), NOT
// inside the output cache: output-byte eviction under memory pressure
// must not also destroy delta ancestry, or one burst of large unrelated
// rewrites would reset every client's edit chain to cold-miss latency.
// Ancestors are indexed by (config fingerprint, input length) — the two
// properties of a request that are cheap to compute before any diffing —
// and up to snapCandidates most-recent ancestors per index entry are
// tried in MRU order. With a disk tier, snapshots also spill to it, so a
// restarted daemon keeps its ancestry.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"zipr"
	"zipr/internal/core"
	"zipr/internal/fault"
)

// snapCandidates bounds how many ancestors one (fingerprint, length)
// index entry offers a request; each failed candidate costs an image
// memcmp, so the fan-out is kept small.
const snapCandidates = 3

// ancKey indexes snapshots by the pre-diff properties of a request: the
// config fingerprint (hashed) and the input image length. An edited
// input within the delta-eligible class always has its ancestor's exact
// length — instruction lengths are preserved — so length mismatches are
// never worth diffing.
type ancKey struct {
	fp    [sha256.Size]byte
	inLen int
}

func ancKeyOf(cfg zipr.Config, inLen int) ancKey {
	return ancKey{fp: sha256.Sum256([]byte(cfg.Fingerprint())), inLen: inLen}
}

// slotKey renders the ancestor index key as the name of the disk tier's
// per-ancestor snapshot slot.
func (a ancKey) slotKey() string {
	return fmt.Sprintf("%s:%d", hex.EncodeToString(a.fp[:]), a.inLen)
}

// snapEntry is one stored snapshot plus the report fields a delta
// answer reproduces (by the snapshot identity argument, the edited
// input's from-scratch report equals its ancestor's for these fields).
type snapEntry struct {
	key      Key
	anc      ancKey
	snap     *core.Snapshot
	size     int64
	stats    zipr.Stats
	layout   string
	warnings []string
	disk     bool // loaded from the disk tier's snapshot slot

	prev, next *snapEntry // LRU list, most recent at head
}

// snapStore is the byte-budgeted LRU of placement snapshots with the
// ancestor index. Not safe for concurrent use; the Server serializes
// access under its mutex.
type snapStore struct {
	budget  int64
	bytes   int64
	entries map[Key]*snapEntry
	byAnc   map[ancKey][]*snapEntry // MRU order, bounded by snapCandidates
	head    *snapEntry
	tail    *snapEntry
	evicted int64
}

func newSnapStore(budget int64) *snapStore {
	return &snapStore{
		budget:  budget,
		entries: make(map[Key]*snapEntry),
		byAnc:   make(map[ancKey][]*snapEntry),
	}
}

// candidates returns up to snapCandidates entries for anc, most recent
// first. The returned slice is a copy; entries are immutable once
// stored except through remove.
func (st *snapStore) candidates(anc ancKey) []*snapEntry {
	return append([]*snapEntry(nil), st.byAnc[anc]...)
}

// put inserts e, replacing any entry under the same key, and evicts
// from the cold end until the byte budget holds. Oversized snapshots
// are not stored at all.
func (st *snapStore) put(e *snapEntry) {
	if old := st.entries[e.key]; old != nil {
		st.remove(old)
	}
	if e.size > st.budget {
		return
	}
	st.entries[e.key] = e
	st.pushFront(e)
	st.bytes += e.size
	lst := append([]*snapEntry{e}, st.byAnc[e.anc]...)
	if len(lst) > snapCandidates {
		lst = lst[:snapCandidates]
	}
	st.byAnc[e.anc] = lst
	for st.bytes > st.budget && st.tail != nil && st.tail != e {
		st.evicted++
		st.remove(st.tail)
	}
}

// remove drops e entirely (budget, LRU list and ancestor index).
func (st *snapStore) remove(e *snapEntry) {
	if st.entries[e.key] != e {
		return
	}
	delete(st.entries, e.key)
	st.unlink(e)
	st.bytes -= e.size
	lst := st.byAnc[e.anc]
	for i, x := range lst {
		if x == e {
			lst = append(lst[:i], lst[i+1:]...)
			break
		}
	}
	if len(lst) == 0 {
		delete(st.byAnc, e.anc)
	} else {
		st.byAnc[e.anc] = lst
	}
}

func (st *snapStore) pushFront(e *snapEntry) {
	e.prev, e.next = nil, st.head
	if st.head != nil {
		st.head.prev = e
	}
	st.head = e
	if st.tail == nil {
		st.tail = e
	}
}

func (st *snapStore) unlink(e *snapEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if st.head == e {
		st.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if st.tail == e {
		st.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// loadSnapshots pulls an ancestor's spilled snapshot from the disk
// tier's per-ancestor slot when the in-memory store has none (a
// restarted daemon keeps its ancestry this way). An unparseable blob is
// deleted.
func (s *Server) loadSnapshots(anc ancKey) []*snapEntry {
	if s.disk == nil {
		return nil
	}
	blob, layout, ok := s.disk.getSnap(anc.slotKey(), s.inj)
	if !ok {
		return nil
	}
	snap, err := core.UnmarshalSnapshot(blob)
	if err != nil || snap.Fingerprint == "" {
		s.disk.delSnap(anc.slotKey())
		return nil
	}
	return []*snapEntry{{
		key:    snapDiskKey(anc.slotKey()),
		anc:    anc,
		snap:   snap,
		size:   snap.SizeBytes(),
		layout: layout,
		disk:   true,
	}}
}

// storeSnapshot records a completed rewrite's snapshot as a delta
// ancestor, in memory and (when a disk tier exists) on disk.
func (s *Server) storeSnapshot(key Key, anc ancKey, snap *core.Snapshot, rep *zipr.Report) {
	e := &snapEntry{
		key:      key,
		anc:      anc,
		snap:     snap,
		size:     snap.SizeBytes(),
		stats:    rep.Stats,
		layout:   rep.Layout,
		warnings: append([]string(nil), rep.Warnings...),
	}
	s.mu.Lock()
	before := s.snaps.evicted
	s.snaps.put(e)
	evicted := s.snaps.evicted - before
	s.syncSnapGaugesLocked()
	s.mu.Unlock()
	if evicted > 0 {
		s.tr.Add("serve.snapshot.evict", evicted)
	}
	// putSnapAsync is nil-safe, but its argument is not free: serialize
	// only when a disk tier will take the blob.
	if s.disk != nil {
		s.disk.putSnapAsync(anc.slotKey(), snap.Marshal(), e.layout)
	}
}

// tryDelta attempts to answer the request from a delta ancestor.
// Returns ok=false when no ancestor applies — the caller then runs the
// full pipeline. Every candidate failure is contained: a stale snapshot
// is dropped (memory and disk tier), an inapplicable edit just moves
// to the next candidate, and the two-outcome contract holds because a
// successful Apply is byte-identical to the pipeline by construction.
func (s *Server) tryDelta(key Key, input []byte, cfg zipr.Config) (out []byte, rep *zipr.Report, snap *core.Snapshot, ok bool) {
	anc := ancKeyOf(cfg, len(input))
	s.mu.Lock()
	cands := s.snaps.candidates(anc)
	s.mu.Unlock()
	if len(cands) == 0 {
		cands = s.loadSnapshots(anc)
	}
	for _, e := range cands {
		if e.key == key {
			// Same content address: the output cache answers exact
			// repeats; the delta path is for edited inputs.
			continue
		}
		snap := e.snap
		if s.inj.Fires(fault.DeltaStaleSnapshot, key.site()^e.key.site()) && len(snap.Output) > 0 {
			// Serve a snapshot whose digests mismatch: flip a byte in a
			// clone (stored entries are shared across concurrent requests)
			// and let Apply's integrity verification catch it — the stale
			// path below then drops the ancestor and the request degrades
			// to a full rewrite.
			clone := *snap
			clone.Output = append([]byte(nil), snap.Output...)
			clone.Output[s.inj.Pick(fault.DeltaStaleSnapshot, key.site(), len(clone.Output))] ^= 0xFF
			snap = &clone
		}
		res, info, err := snap.Apply(input)
		if err != nil {
			if errors.Is(err, core.ErrSnapshotStale) {
				s.mu.Lock()
				s.snaps.remove(e)
				s.stats.DeltaStale++
				s.syncSnapGaugesLocked()
				s.mu.Unlock()
				s.tr.Add("serve.delta.stale", 1)
				s.tel.deltaStale.Add(1)
				if e.disk {
					s.disk.delSnap(e.anc.slotKey())
				}
			}
			continue
		}
		rep := &zipr.Report{
			Stats:      e.stats,
			Layout:     e.layout,
			Warnings:   append([]string(nil), e.warnings...),
			InputSize:  len(input),
			OutputSize: len(res),
		}
		// The answered request becomes a new ancestor: rebase the
		// snapshot onto its images so edit chains keep delta latency.
		ns, err := e.snap.Rebase(input, res, info)
		if err == nil {
			s.storeSnapshot(key, anc, ns, rep)
		} else {
			ns = nil
		}
		s.tr.Add("serve.delta.hit", 1)
		s.mu.Lock()
		s.stats.DeltaHits++
		s.mu.Unlock()
		s.span("serve.delta")
		return res, rep, ns, true
	}
	return nil, nil, nil, false
}

// syncSnapGaugesLocked publishes snapshot-store occupancy gauges;
// caller holds s.mu.
func (s *Server) syncSnapGaugesLocked() {
	s.tr.SetGauge("serve.snapshot.bytes", s.snaps.bytes)
	s.tr.SetGauge("serve.snapshot.entries", int64(len(s.snaps.entries)))
	s.tel.snapBytes.Set(s.snaps.bytes)
	s.tel.snapCount.Set(int64(len(s.snaps.entries)))
}

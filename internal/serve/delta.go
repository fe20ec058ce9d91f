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
	"slices"

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

// slotKey renders the ancestor index key as the name of the disk tier's
// per-ancestor snapshot slot.
func (a ancKey) slotKey() string {
	return fmt.Sprintf("%s:%d", hex.EncodeToString(a.fp[:]), a.inLen)
}

// snapEntry is one stored snapshot plus the report a delta answer
// reproduces (by the snapshot identity argument, the edited input's
// from-scratch report equals its ancestor's).
type snapEntry struct {
	anc  ancKey
	snap *core.Snapshot
	disk bool // loaded from the disk tier's snapshot slot
	cachedReport
}

// snapNode is a snapshot as the store holds it: the lru node carries
// its key and byte size.
type snapNode = lruNode[snapEntry]

// snapStore is the byte-budgeted LRU of placement snapshots with the
// ancestor index. It charges each image page and unit or span table
// once, so a rebased snapshot costs the pages its edit touched. The
// index is also an eviction rule: a snapshot pushed off its ancestor's
// list of snapCandidates can never be offered to a request again, so it
// leaves the store. Not safe for concurrent use; the Server serializes
// access under its mutex.
type snapStore struct {
	lru   *lru[snapEntry]
	byAnc map[ancKey][]*snapNode // most recent first, at most snapCandidates
}

func newSnapStore(budget int64) *snapStore {
	l, refs := newLRU[snapEntry](budget), pageRefs{}
	l.charge = func(n *snapNode, d int) int64 { return refs.snapshot(n.val.snap, d) }
	return &snapStore{lru: l, byAnc: make(map[ancKey][]*snapNode)}
}

// candidates returns up to snapCandidates snapshots for anc, most
// recent first. The returned slice is a copy; stored nodes are
// immutable except through remove.
func (st *snapStore) candidates(anc ancKey) []*snapNode {
	return append([]*snapNode(nil), st.byAnc[anc]...)
}

// put stores e under key as the newest candidate of its ancestor,
// replacing any snapshot under the same key, and returns how many
// snapshots left the store to make room: the one pushed off the
// ancestor's candidate list, and the coldest ones while the byte budget
// is exceeded. An oversized snapshot is not stored at all.
func (st *snapStore) put(key Key, e snapEntry, size int64) (evicted int64) {
	if old := st.lru.peek(key); old != nil {
		st.remove(old)
	}
	n := st.lru.put(key, e, size)
	if n == nil {
		return 0
	}
	lst := st.byAnc[e.anc]
	if len(lst) == snapCandidates {
		st.lru.remove(lst[snapCandidates-1])
		lst = lst[:snapCandidates-1]
		evicted++
	}
	st.byAnc[e.anc] = append([]*snapNode{n}, lst...)
	st.lru.evict(n, func(v *snapNode) {
		st.unindex(v)
		evicted++
	})
	return evicted
}

// remove drops n from the store and the ancestor index.
func (st *snapStore) remove(n *snapNode) {
	if st.lru.remove(n) {
		st.unindex(n)
	}
}

// unindex drops n from its ancestor's candidate list.
func (st *snapStore) unindex(n *snapNode) {
	lst := st.byAnc[n.val.anc]
	for i, x := range lst {
		if x == n {
			lst = slices.Delete(lst, i, i+1) // clears the vacated slot
			break
		}
	}
	if len(lst) == 0 {
		delete(st.byAnc, n.val.anc)
	} else {
		st.byAnc[n.val.anc] = lst
	}
}

// loadSnapshots pulls an ancestor's spilled snapshot from the disk
// tier's per-ancestor slot when the in-memory store has none (a
// restarted daemon keeps its ancestry this way). A spill still pending
// answers with its snapshot itself; an unparseable blob, or a snapshot
// without a fingerprint, is deleted. layout names the request's placer,
// which made the snapshot too: the fingerprint in the slot key pins it.
func (s *Server) loadSnapshots(anc ancKey, layout string) []*snapNode {
	if s.disk == nil {
		return nil
	}
	snap, ok := s.disk.getSnap(anc.slotKey(), s.inj)
	if !ok {
		return nil
	}
	if snap.Fingerprint == "" {
		s.disk.delSnap(anc.slotKey())
		return nil
	}
	return []*snapNode{{
		key:  snapDiskKey(anc.slotKey()),
		size: snap.SizeBytes(),
		val: snapEntry{
			anc:          anc,
			snap:         snap,
			disk:         true,
			cachedReport: cachedReport{layout: layout},
		},
	}}
}

// storeSnapshot records a completed rewrite's snapshot as a delta
// ancestor, in memory and (when a disk tier exists) on disk.
func (s *Server) storeSnapshot(key Key, anc ancKey, snap *core.Snapshot, rep *zipr.Report) {
	e := snapEntry{
		anc:          anc,
		snap:         snap,
		cachedReport: keepReport(rep),
	}
	size := snap.SizeBytes()
	s.mu.Lock()
	s.stats.SnapEvictions += s.snaps.put(key, e, size)
	s.mu.Unlock()
	// The disk tier's writer serializes the snapshot; the stored one is
	// immutable, so the spill shares it.
	s.disk.putSnapAsync(anc.slotKey(), snap)
}

// tryDelta attempts to answer the request from a delta ancestor; inSum
// is the input's SHA-256. It returns the stored rebased snapshot, whose
// Output is the answer and OutDigest its digest, or ok=false when no
// ancestor applies — the caller then runs the full pipeline. Every
// candidate failure is contained: a stale snapshot is dropped (memory
// and disk tier), an inapplicable edit just moves to the next
// candidate, and the two-outcome contract holds because a successful
// Apply is byte-identical to the pipeline by construction. layout is
// the request's layout name (Config.EffectiveLayout).
func (s *Server) tryDelta(key Key, anc ancKey, inSum [sha256.Size]byte, input []byte, layout string) (ns *core.Snapshot, rep *zipr.Report, ok bool) {
	s.mu.Lock()
	cands := s.snaps.candidates(anc)
	s.mu.Unlock()
	if len(cands) == 0 {
		cands = s.loadSnapshots(anc, layout)
	}
	for _, e := range cands {
		if e.key == key {
			// Same content address: the output cache answers exact
			// repeats; the delta path is for edited inputs.
			continue
		}
		snap := e.val.snap
		var err error
		if s.inj.Fires(fault.DeltaStaleSnapshot, key.site()^e.key.site()) && snap.Output.Len() > 0 {
			// Serve a snapshot whose digests mismatch: flip a byte in a
			// clone (stored entries are shared across concurrent requests)
			// and verify the clone — a stored snapshot was verified when
			// it entered the store, so only a rotted copy needs it. The
			// stale path below then drops the ancestor and the request
			// degrades to a full rewrite.
			clone := *snap
			out := snap.Output.Bytes()
			out[s.inj.Pick(fault.DeltaStaleSnapshot, key.site(), len(out))] ^= 0xFF
			clone.Output = core.NewImage(out)
			snap = &clone
			err = snap.Verify()
		}
		var res core.Image
		if err == nil {
			res, _, err = snap.Apply(input)
		}
		if err != nil {
			if errors.Is(err, core.ErrSnapshotStale) {
				s.mu.Lock()
				s.snaps.remove(e)
				s.stats.DeltaStale++
				s.mu.Unlock()
				if e.val.disk {
					s.disk.delSnap(anc.slotKey())
				}
			}
			continue
		}
		rep := e.val.report(len(input), res.Len())
		// The answered request becomes a new ancestor: rebase the
		// snapshot onto its images so edit chains keep delta latency.
		// The rebased snapshot shares every page of its ancestor's
		// images that the edit left equal.
		ns := e.val.snap.Rebase(input, inSum, res)
		s.storeSnapshot(key, anc, ns, rep)
		s.count(&s.stats.DeltaHits)
		return ns, rep, true
	}
	return nil, nil, false
}

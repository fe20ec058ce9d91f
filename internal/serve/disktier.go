package serve

// The disk tier: a content-addressed on-disk store behind the in-memory
// LRU. Outputs and placement snapshots spill here so a restarted (or
// memory-pressured) server answers previously-seen inputs without a
// pipeline run — the durability half of the fleet story (DESIGN.md §12).
//
// Layout under the tier directory:
//
//	objects/<hh>/<keyhex>   one file per entry, written tmp+rename
//	tmp/                    in-flight writes (leftovers = crash debris)
//	quarantine/<keyhex>     entries that failed the digest check on read
//	journal                 append-only JSONL index (put/del records)
//
// Invariants:
//
//   - The hot path never blocks on disk writes: spills go through a
//     bounded write-behind queue drained by one background goroutine;
//     a full queue drops the spill (counted), never the request.
//   - Spills are not copied or rehashed. A spill holds the server's own
//     output image, with the digest the server already holds for it, or
//     a placement snapshot; the server modifies neither (DESIGN.md §11,
//     the ownership rule). The writer serializes a snapshot itself,
//     streaming it into the tmp file and hashing it in the same pass, so
//     the request path never marshals one; an output image is written
//     as it is and indexed under its carried digest.
//   - Reads see queued writes. A spill is indexed only once its object
//     is synced and renamed into place; until then a read of its key is
//     answered from the pending job's image or snapshot itself (counted
//     as PendingHits, apart from the digest-verified Hits), so a repeat
//     that arrives before the writer catches up still skips the
//     pipeline.
//   - Spills coalesce. A spill to a key whose job the writer has not
//     started replaces that job's value instead of queueing another, so
//     a burst of snapshot spills to one ancestor slot costs one write,
//     of the newest snapshot; the ones replaced are never serialized.
//     Deleting a snapshot slot discards its pending job too.
//   - Every read is digest-verified against the SHA-256 recorded at
//     write time. A mismatch quarantines the file and drops the index
//     entry: the tier degrades to a miss, it never serves wrong bytes.
//   - Writes are crash-safe: content goes to tmp/, is synced, then
//     renamed into objects/ before the journal line is appended. On
//     reopen, tmp debris is discarded, a torn journal tail is dropped,
//     journal entries whose object file is missing or mis-sized are
//     dropped, and orphaned object files (renamed but never journaled)
//     are removed — each counted as recovered.
//   - A byte budget is enforced by LRU eviction over the journal-order
//     recency list (reads refresh recency in memory only; recency
//     resets to insertion order across a restart).

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"zipr/internal/core"
	"zipr/internal/fault"
)

// diskKind discriminates what a disk entry holds.
const (
	diskKindOut  = "out"  // a rewrite output image
	diskKindSnap = "snap" // a placement snapshot, marshaled by the writer
)

// diskQueueDepth bounds the write-behind queue; spills beyond it are
// dropped (and counted) so the request path never blocks on disk.
const diskQueueDepth = 256

// DiskStats is a point-in-time snapshot of the tier's behavior,
// surfaced through serve.Stats and ziprd's /stats.
type DiskStats struct {
	Hits         int64 // digest-verified reads served
	PendingHits  int64 // reads answered from a spill not yet written
	Misses       int64 // lookups with no index entry
	Corrupt      int64 // reads that failed the digest check (quarantined)
	Evicted      int64 // entries dropped for the byte budget
	WriteDropped int64 // spills dropped on a full write-behind queue
	Recovered    int64 // partial/orphaned artifacts discarded at open
	Entries      int   // current index entries (outputs + snapshots)
	Bytes        int64 // current stored bytes
}

// diskEntry is one indexed object; the index is an lru[diskEntry] over
// object bytes, whose nodes carry the key and size.
type diskEntry struct {
	kind   string
	sum    [sha256.Size]byte
	layout string
}

type diskNode = lruNode[diskEntry]

// diskRecord is the journal line shape.
type diskRecord struct {
	Op     string `json:"op"` // "put" or "del"
	Kind   string `json:"kind,omitempty"`
	Key    string `json:"key"`
	Size   int64  `json:"size,omitempty"`
	Sum    string `json:"sum,omitempty"`
	Layout string `json:"layout,omitempty"`
}

// diskJob is one queued write-behind spill: an output image (data,
// with its SHA-256 in sum) or a placement snapshot (snap) the writer
// serializes. Both are immutable and shared with the server, never
// copied. While the job is pending — from the spill until the writer has
// indexed or abandoned it — reads of its key are answered from data or
// snap; until the writer takes it, a later spill to the same key
// replaces kind, data, sum, snap and layout. After taken is set those
// fields no longer change, so the writer reads them unlocked.
type diskJob struct {
	key    Key
	kind   string
	data   []byte
	sum    [sha256.Size]byte
	snap   *core.Snapshot
	layout string

	taken   bool // the writer has started on it (guarded by DiskTier.mu)
	dropped bool // delSnap discarded it (guarded by DiskTier.mu)
}

// DiskTier is the disk-backed second cache tier. Construct with
// OpenDiskTier; all methods are safe for concurrent use. A nil *DiskTier
// disables the tier (every method is a nil-safe no-op).
type DiskTier struct {
	dir string

	mu      sync.Mutex
	idx     *lru[diskEntry]
	journal *os.File
	ops     int64 // journal lines written since open/compaction
	stats   DiskStats
	closed  bool
	pending map[Key]*diskJob // spills queued or being written, by key

	wq chan *diskJob
	wg sync.WaitGroup
	bw *bufio.Writer // the writer goroutine's snapshot stream buffer
}

// OpenDiskTier opens (creating or recovering) the disk tier rooted at
// dir with the given byte budget. Recovery drops crash debris — tmp
// files, a torn journal tail, index entries without a matching object,
// orphaned objects — and reports the count via Stats().Recovered.
func OpenDiskTier(dir string, budget int64) (*DiskTier, error) {
	t, err := openDiskTier(dir, budget)
	if err != nil {
		return nil, err
	}
	t.startWriter()
	return t, nil
}

// openDiskTier is OpenDiskTier without the writer: spills stay pending
// until startWriter.
func openDiskTier(dir string, budget int64) (*DiskTier, error) {
	if budget <= 0 {
		budget = 256 << 20
	}
	t := &DiskTier{
		dir:     dir,
		idx:     newLRU[diskEntry](budget),
		pending: make(map[Key]*diskJob),
		wq:      make(chan *diskJob, diskQueueDepth),
	}
	for _, sub := range []string{"objects", "tmp", "quarantine"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("disk tier: %w", err)
		}
	}
	if err := t.recover(); err != nil {
		return nil, err
	}
	jf, err := os.OpenFile(t.journalPath(), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("disk tier: journal: %w", err)
	}
	t.journal = jf
	return t, nil
}

// startWriter starts the write-behind goroutine.
func (t *DiskTier) startWriter() {
	t.wg.Add(1)
	go t.writer()
}

func (t *DiskTier) journalPath() string { return filepath.Join(t.dir, "journal") }

func (t *DiskTier) objectPath(key Key) string {
	h := key.String()
	return filepath.Join(t.dir, "objects", h[:2], h)
}

// recover rebuilds the index from the journal, discarding every
// artifact a crash could have left half-written.
func (t *DiskTier) recover() error {
	// Crash debris: writes that never reached their rename.
	if tmps, err := os.ReadDir(filepath.Join(t.dir, "tmp")); err == nil {
		for _, de := range tmps {
			os.Remove(filepath.Join(t.dir, "tmp", de.Name()))
			t.stats.Recovered++
		}
	}
	type rec struct {
		r   diskRecord
		seq int
	}
	live := make(map[string]rec)
	seq := 0
	if raw, err := os.ReadFile(t.journalPath()); err == nil {
		lines := 0
		for len(raw) > 0 {
			var line []byte
			line, raw, _ = bytes.Cut(raw, []byte{'\n'})
			if len(line) == 0 {
				continue
			}
			var r diskRecord
			if err := json.Unmarshal(line, &r); err != nil || r.Key == "" {
				// A torn tail (partial last line from a crash mid-append)
				// ends the replay; everything after it is untrusted.
				t.stats.Recovered++
				break
			}
			lines++
			switch r.Op {
			case "put":
				seq++
				live[r.Key] = rec{r: r, seq: seq}
			case "del":
				delete(live, r.Key)
			}
		}
		t.ops = int64(lines)
	}
	// Verify every surviving record against its object file, oldest
	// first so the LRU list ends up in journal (recency) order.
	ordered := make([]rec, 0, len(live))
	for _, r := range live {
		ordered = append(ordered, r)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].seq < ordered[j].seq })
	indexed := make(map[string]bool, len(ordered))
	for _, rc := range ordered {
		r := rc.r
		var key Key
		kb, err := hex.DecodeString(r.Key)
		if err != nil || len(kb) != len(key) {
			t.stats.Recovered++
			continue
		}
		copy(key[:], kb)
		fi, err := os.Stat(t.objectPath(key))
		if err != nil || fi.Size() != r.Size {
			// The journal promised an object the filesystem does not
			// hold (crash between journal append and a later truncation,
			// or manual damage): drop the entry.
			t.stats.Recovered++
			continue
		}
		e := diskEntry{kind: r.Kind, layout: r.Layout}
		if sb, err := hex.DecodeString(r.Sum); err == nil && len(sb) == len(e.sum) {
			copy(e.sum[:], sb)
		}
		if t.idx.put(key, e, r.Size) == nil {
			// Larger than the whole budget: evicted, as the final pass
			// would have.
			t.stats.Evicted++
			os.Remove(t.objectPath(key))
		}
		indexed[r.Key] = true
	}
	// Orphans: object files renamed into place whose journal line was
	// lost. Without a recorded digest they are unverifiable — remove.
	if subdirs, err := os.ReadDir(filepath.Join(t.dir, "objects")); err == nil {
		for _, sd := range subdirs {
			if !sd.IsDir() {
				continue
			}
			files, err := os.ReadDir(filepath.Join(t.dir, "objects", sd.Name()))
			if err != nil {
				continue
			}
			for _, f := range files {
				if !indexed[f.Name()] {
					os.Remove(filepath.Join(t.dir, "objects", sd.Name(), f.Name()))
					t.stats.Recovered++
				}
			}
		}
	}
	t.evictLocked(nil)
	// Compact a journal that has grown far past the live set (or whose
	// deletions could not be journaled because recovery eviction runs
	// before the journal reopens), so reopen cost tracks occupancy
	// rather than history.
	if t.ops > 2*int64(t.idx.len())+16 || t.stats.Evicted > 0 {
		t.compact()
	}
	return nil
}

// compact rewrites the journal to one put line per live entry
// (tmp+rename, so a crash mid-compaction keeps the old journal).
func (t *DiskTier) compact() {
	tmp := filepath.Join(t.dir, "tmp", "journal.tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return
	}
	enc := json.NewEncoder(f)
	n := int64(0)
	t.idx.each(func(e *diskNode) {
		enc.Encode(putRecord(e))
		n++
	})
	if f.Sync() != nil || f.Close() != nil {
		os.Remove(tmp)
		return
	}
	if os.Rename(tmp, t.journalPath()) == nil {
		t.ops = n
	}
}

func putRecord(e *diskNode) diskRecord {
	return diskRecord{
		Op:     "put",
		Kind:   e.val.kind,
		Key:    e.key.String(),
		Size:   e.size,
		Sum:    hex.EncodeToString(e.val.sum[:]),
		Layout: e.val.layout,
	}
}

// Close drains the write-behind queue and closes the journal.
// Idempotent; concurrent spills after Close are dropped.
func (t *DiskTier) Close() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	t.mu.Unlock()
	close(t.wq)
	t.wg.Wait()
	t.mu.Lock()
	t.journal.Close()
	t.mu.Unlock()
}

// Stats returns a snapshot of the tier's counters and occupancy.
// Nil-safe (zero).
func (t *DiskTier) Stats() DiskStats {
	if t == nil {
		return DiskStats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stats
	st.Entries = t.idx.len()
	st.Bytes = t.idx.bytes
	return st
}

// putAsync spills an output image whose SHA-256 is sum. The tier keeps
// data itself, not a copy: the caller must never modify it again.
// Nil-safe.
func (t *DiskTier) putAsync(key Key, data []byte, sum [sha256.Size]byte, layout string) {
	if t == nil {
		return
	}
	t.spill(&diskJob{key: key, kind: diskKindOut, data: data, sum: sum, layout: layout})
}

// spill enqueues next on the write-behind queue, or folds it into its
// key's queued job when the writer has not started on that one (the
// job's value is replaced, never written into). A full queue or a
// closed tier drops the spill.
func (t *DiskTier) spill(next *diskJob) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	if job := t.pending[next.key]; job != nil && !job.taken {
		job.kind, job.data, job.sum, job.snap, job.layout = next.kind, next.data, next.sum, next.snap, next.layout
		return
	}
	// Holding t.mu across the send is safe: the writer never takes t.mu
	// while receiving, and the send is non-blocking.
	select {
	case t.wq <- next:
		t.pending[next.key] = next
	default:
		t.stats.WriteDropped++
	}
}

// writer is the write-behind goroutine: it takes each job, stores it
// outside the lock, then indexes it and retires it from pending.
func (t *DiskTier) writer() {
	defer t.wg.Done()
	for job := range t.wq {
		t.mu.Lock()
		job.taken = true
		dropped := job.dropped
		t.mu.Unlock()
		var e *diskEntry
		var size int64
		if !dropped {
			e, size = t.store(job)
		}
		t.commit(job, e, size)
	}
}

// store writes a taken job's object: content to tmp, sync, rename. A
// snapshot is serialized here, streamed through t.bw and hashed in the
// same pass; an output image is indexed under the digest its job
// carries. It returns the entry to index and the object's size, or nil
// when the object is not in place.
func (t *DiskTier) store(job *diskJob) (*diskEntry, int64) {
	size := int64(len(job.data))
	if job.snap != nil {
		size = int64(job.snap.MarshalSize())
	}
	if size > t.idx.budget {
		return nil, 0
	}
	h := job.key.String()
	tmp := filepath.Join(t.dir, "tmp", h+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return nil, 0
	}
	e := &diskEntry{kind: job.kind, sum: job.sum, layout: job.layout}
	if job.snap != nil {
		h := sha256.New()
		w := io.MultiWriter(f, h)
		if t.bw == nil {
			t.bw = bufio.NewWriterSize(w, 64<<10)
		} else {
			t.bw.Reset(w)
		}
		err = job.snap.Stream(t.bw)
		t.bw.Reset(nil) // keep no reference to the file
		h.Sum(e.sum[:0])
	} else {
		_, err = f.Write(job.data)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, 0
	}
	if f.Sync() != nil || f.Close() != nil {
		os.Remove(tmp)
		return nil, 0
	}
	dst := t.objectPath(job.key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		os.Remove(tmp)
		return nil, 0
	}
	if err := os.Rename(tmp, dst); err != nil {
		os.Remove(tmp)
		return nil, 0
	}
	return e, size
}

// commit retires a finished job from pending and indexes its stored
// object (e of the given size, nil when nothing was stored): journal,
// then eviction. A job delSnap discarded while it was being written
// leaves no entry and no object behind.
func (t *DiskTier) commit(job *diskJob, e *diskEntry, size int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pending[job.key] == job {
		delete(t.pending, job.key)
	}
	if e == nil {
		return
	}
	if job.dropped {
		os.Remove(t.objectPath(job.key))
		return
	}
	n := t.idx.put(job.key, *e, size)
	t.appendJournalLocked(putRecord(n))
	t.evictLocked(n)
}

// get returns the bytes of the output image spilled under key with
// their SHA-256, or ok=false. Bytes from a pending spill are the
// server's immutable image itself, not a copy, and sum the digest the
// spill carries; bytes read from disk are fresh, and sum the digest they
// were just verified against. Nil-safe.
func (t *DiskTier) get(key Key, inj *fault.Injector) (data []byte, sum [sha256.Size]byte, layout string, ok bool) {
	if t == nil {
		return nil, sum, "", false
	}
	data, sum, _, layout, ok = t.fetch(key, inj)
	return data, sum, layout, ok
}

// getSnap / putSnapAsync store one most-recent placement snapshot per
// ancestor index key, content-addressed under a derived key. getSnap
// answers a pending spill with the spilled snapshot itself, and
// otherwise parses the digest-verified object; an unparseable object is
// deleted.
func (t *DiskTier) getSnap(anc string, inj *fault.Injector) (*core.Snapshot, string, bool) {
	if t == nil {
		return nil, "", false
	}
	data, _, snap, layout, ok := t.fetch(snapDiskKey(anc), inj)
	if !ok || snap != nil {
		return snap, layout, ok
	}
	snap, err := core.UnmarshalSnapshot(data)
	if err != nil {
		t.delSnap(anc)
		return nil, "", false
	}
	return snap, layout, true
}

// putSnapAsync spills snap, which the tier keeps and serializes on its
// writer goroutine; the caller must never modify it again. Nil-safe.
func (t *DiskTier) putSnapAsync(anc string, snap *core.Snapshot, layout string) {
	if t == nil {
		return
	}
	t.spill(&diskJob{key: snapDiskKey(anc), kind: diskKindSnap, snap: snap, layout: layout})
}

// fetch answers a read of key: the pending spill's value (and an output
// spill's carried digest) when one is queued or being written, else the
// digest-verified object bytes and that digest. A failed digest check
// quarantines the object and drops the entry. inj may arm
// fault.DiskTierCorrupt, which flips one byte of a disk read before
// verification — the check must turn it into a quarantined miss.
func (t *DiskTier) fetch(key Key, inj *fault.Injector) (data []byte, sum [sha256.Size]byte, snap *core.Snapshot, layout string, ok bool) {
	t.mu.Lock()
	if job := t.pending[key]; job != nil {
		data, sum, snap, layout = job.data, job.sum, job.snap, job.layout
		t.stats.PendingHits++
		t.mu.Unlock()
		return data, sum, snap, layout, true
	}
	// A read promotes the entry before it is verified; a failed check
	// removes it anyway.
	e := t.idx.get(key)
	if e == nil {
		t.stats.Misses++
		t.mu.Unlock()
		return nil, sum, nil, "", false
	}
	sum, lay := e.val.sum, e.val.layout
	t.mu.Unlock()

	data, err := os.ReadFile(t.objectPath(key))
	if err == nil && inj.Fires(fault.DiskTierCorrupt, key.site()) && len(data) > 0 {
		data[inj.Pick(fault.DiskTierCorrupt, key.site(), len(data))] ^= 0xFF
	}
	if err != nil || sha256.Sum256(data) != sum {
		t.quarantine(e, err == nil)
		return nil, [sha256.Size]byte{}, nil, "", false
	}
	t.mu.Lock()
	t.stats.Hits++
	t.mu.Unlock()
	return data, sum, nil, lay, true
}

func (t *DiskTier) delSnap(anc string) {
	if t == nil {
		return
	}
	key := snapDiskKey(anc)
	t.mu.Lock()
	if job := t.pending[key]; job != nil {
		job.dropped = true
		delete(t.pending, key)
	}
	if e := t.idx.peek(key); e != nil {
		t.removeLocked(e)
	}
	t.mu.Unlock()
}

// snapDiskKey derives the disk-tier address of an ancestor's snapshot
// slot. The "snap\x00" domain separator keeps it disjoint from output
// keys (which are raw SHA-256 of input||fingerprint digests).
func snapDiskKey(anc string) Key {
	h := sha256.New()
	h.Write([]byte("snap\x00"))
	h.Write([]byte(anc))
	var k Key
	h.Sum(k[:0])
	return k
}

// quarantine handles a failed read: the entry leaves the index (and
// journal), and a corrupt file is moved aside for postmortem rather
// than deleted. fileOK reports whether the object file was readable
// (false: it vanished; nothing to move).
func (t *DiskTier) quarantine(e *diskNode, fileOK bool) {
	t.mu.Lock()
	t.removeLocked(e)
	t.stats.Corrupt++
	t.mu.Unlock()
	if fileOK {
		os.Rename(t.objectPath(e.key), filepath.Join(t.dir, "quarantine", e.key.String()))
	}
}

// removeLocked drops e from the index and journals the deletion; an
// entry already removed or replaced is left alone. Caller holds t.mu.
func (t *DiskTier) removeLocked(e *diskNode) {
	if t.idx.remove(e) {
		t.appendJournalLocked(diskRecord{Op: "del", Key: e.key.String()})
	}
}

// evictLocked drops cold entries until the byte budget holds, journaling
// each deletion and removing its object. keep, when non-nil, is never
// evicted (the entry just inserted). Caller holds t.mu.
func (t *DiskTier) evictLocked(keep *diskNode) {
	t.idx.evict(keep, func(victim *diskNode) {
		t.stats.Evicted++
		t.appendJournalLocked(diskRecord{Op: "del", Key: victim.key.String()})
		os.Remove(t.objectPath(victim.key))
	})
}

// appendJournalLocked writes one journal line; caller holds t.mu. The
// journal is not synced per line — recovery tolerates a torn tail.
func (t *DiskTier) appendJournalLocked(r diskRecord) {
	if t.journal == nil {
		return
	}
	b, err := json.Marshal(r)
	if err != nil {
		return
	}
	t.journal.Write(append(b, '\n'))
	t.ops++
}

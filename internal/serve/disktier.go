package serve

// The disk tier: a content-addressed on-disk store behind the in-memory
// LRU. Outputs and placement snapshots spill here so a restarted (or
// memory-pressured) server answers previously-seen inputs without a
// pipeline run — the durability half of the fleet story (DESIGN.md §12).
//
// Layout under the tier directory:
//
//	objects/<hh>/<keyhex>   one file per entry: the payload, then a
//	                        32-byte trailer holding its SHA-256
//	tmp/                    in-flight writes (leftovers = crash debris)
//	quarantine/<keyhex>     entries that failed the digest check on read
//
// Each object describes itself, so the directory is the index: there is
// no journal to keep in step with it.
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
//     as it is, and its carried digest becomes its trailer.
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
//   - Every read verifies the payload against its trailer. A short file
//     or a mismatch quarantines the file and drops the index entry: the
//     tier degrades to a miss, it never serves wrong bytes.
//   - Writes are crash-safe: payload and trailer go to tmp/, are
//     synced, then renamed into objects/, so an object is in the store
//     exactly when its file is. On reopen, tmp debris, names that are
//     not keys and files too short to hold a trailer are removed, each
//     counted as recovered; the rest are indexed from their directory
//     entries alone and verified when read.
//   - A directory in the older journaled format (a journal file beside
//     trailer-less objects) is purged at open: each object is removed
//     and counted as recovered, then the journal.
//   - A byte budget over payload bytes is enforced by LRU eviction.
//     Reads refresh recency in memory only; across a restart recency is
//     write order, read back from the modification times the writer
//     stamps, oldest first, ties broken by name.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"zipr/internal/core"
	"zipr/internal/fault"
)

// diskQueueDepth bounds the write-behind queue; spills beyond it are
// dropped (and counted) so the request path never blocks on disk.
const diskQueueDepth = 256

// trailerSize is the length of an object's trailer, the SHA-256 of the
// payload before it.
const trailerSize = sha256.Size

// DiskStats is a point-in-time snapshot of the tier's behavior,
// surfaced through serve.Stats and ziprd's /stats.
type DiskStats struct {
	Hits         int64 // digest-verified reads served
	PendingHits  int64 // reads answered from a spill not yet written
	Misses       int64 // lookups with no index entry
	Corrupt      int64 // reads that failed the digest check (quarantined)
	Evicted      int64 // entries dropped for the byte budget
	WriteDropped int64 // spills dropped on a full write-behind queue
	Recovered    int64 // debris and non-objects removed at open
	Entries      int   // current index entries (outputs + snapshots)
	Bytes        int64 // current stored payload bytes
}

// diskNode is one indexed object; the index is an lru over payload
// bytes whose nodes carry only the key and the payload size.
type diskNode = lruNode[struct{}]

// diskJob is one queued write-behind spill: an output image (data,
// with its SHA-256 in sum) or a placement snapshot (snap) the writer
// serializes. Both are immutable and shared with the server, never
// copied. While the job is pending — from the spill until the writer has
// indexed or abandoned it — reads of its key are answered from data or
// snap; until the writer takes it, a later spill to the same key
// replaces data, sum and snap. After taken is set those fields no
// longer change, so the writer reads them unlocked.
type diskJob struct {
	key  Key
	data core.Image
	sum  [sha256.Size]byte
	snap *core.Snapshot

	taken   bool // the writer has started on it (guarded by DiskTier.mu)
	dropped bool // delSnap discarded it (guarded by DiskTier.mu)
}

// DiskTier is the disk-backed second cache tier. Construct with
// OpenDiskTier; all methods are safe for concurrent use. A nil *DiskTier
// disables the tier (every method is a nil-safe no-op).
type DiskTier struct {
	dir string

	mu      sync.Mutex
	idx     *lru[struct{}]
	stats   DiskStats
	closed  bool
	pending map[Key]*diskJob // spills queued or being written, by key

	wq    chan *diskJob
	wg    sync.WaitGroup
	bw    *bufio.Writer // the writer goroutine's stream buffer
	stamp time.Time     // the writer goroutine's last object mtime
}

// OpenDiskTier opens (creating or recovering) the disk tier rooted at
// dir with the given byte budget. Recovery drops crash debris — tmp
// files, names that are not keys, objects too short to carry a digest —
// and reports the count via Stats().Recovered.
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
		idx:     newLRU[struct{}](budget),
		pending: make(map[Key]*diskJob),
		wq:      make(chan *diskJob, diskQueueDepth),
		bw:      bufio.NewWriterSize(nil, 64<<10),
	}
	for _, sub := range []string{"objects", "tmp", "quarantine"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("disk tier: %w", err)
		}
	}
	t.recover()
	return t, nil
}

// startWriter starts the write-behind goroutine.
func (t *DiskTier) startWriter() {
	t.wg.Add(1)
	go t.writer()
}

func (t *DiskTier) objectPath(key Key) string {
	h := key.String()
	return filepath.Join(t.dir, "objects", h[:2], h)
}

// objectKey returns the key whose object path is objects/<sub>/<name>,
// or false when no key's is.
func objectKey(sub, name string) (Key, bool) {
	var key Key
	b, err := hex.DecodeString(name)
	if err != nil || len(b) != len(key) {
		return key, false
	}
	copy(key[:], b)
	h := key.String()
	return key, h == name && h[:2] == sub
}

// recover indexes the objects on disk, oldest first by modification
// time, and removes what cannot be an object: tmp debris, entries whose
// path is not a key's, and files too short to hold a trailer. Objects
// are not read here; a read verifies each one. A directory in the
// journaled format has no trailers, so all its objects are removed, and
// its journal last, so a crash mid-purge leaves a directory that is
// purged again.
func (t *DiskTier) recover() {
	tmp := filepath.Join(t.dir, "tmp")
	if des, err := os.ReadDir(tmp); err == nil {
		for _, de := range des {
			os.RemoveAll(filepath.Join(tmp, de.Name()))
			t.stats.Recovered++
		}
	}
	journal := filepath.Join(t.dir, "journal")
	_, err := os.Lstat(journal)
	legacy := err == nil
	type object struct {
		key   Key
		size  int64
		mtime time.Time
	}
	var objs []object
	root := filepath.Join(t.dir, "objects")
	subs, _ := os.ReadDir(root)
	for _, sd := range subs {
		sub := filepath.Join(root, sd.Name())
		if !sd.IsDir() {
			os.RemoveAll(sub)
			t.stats.Recovered++
			continue
		}
		des, _ := os.ReadDir(sub)
		for _, de := range des {
			key, ok := objectKey(sd.Name(), de.Name())
			fi, err := de.Info()
			if ok && !legacy && err == nil && fi.Mode().IsRegular() && fi.Size() >= trailerSize {
				objs = append(objs, object{key, fi.Size() - trailerSize, fi.ModTime()})
				continue
			}
			os.RemoveAll(filepath.Join(sub, de.Name()))
			t.stats.Recovered++
		}
	}
	if legacy {
		os.RemoveAll(journal)
	}
	sort.Slice(objs, func(i, j int) bool {
		if !objs[i].mtime.Equal(objs[j].mtime) {
			return objs[i].mtime.Before(objs[j].mtime)
		}
		return string(objs[i].key[:]) < string(objs[j].key[:])
	})
	for _, o := range objs {
		if t.idx.put(o.key, struct{}{}, o.size) == nil {
			// Larger than the whole budget: evicted, as the final pass
			// would have.
			t.stats.Evicted++
			os.Remove(t.objectPath(o.key))
		}
	}
	t.evictLocked(nil)
}

// Close drains the write-behind queue. Idempotent; concurrent spills
// after Close are dropped.
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

// putAsync spills an output image whose SHA-256 is sum, keeping data
// itself. Nil-safe.
func (t *DiskTier) putAsync(key Key, data core.Image, sum [sha256.Size]byte) {
	if t == nil {
		return
	}
	t.spill(&diskJob{key: key, data: data, sum: sum})
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
		job.data, job.sum, job.snap = next.data, next.sum, next.snap
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
		size := int64(-1)
		if !dropped {
			size = t.store(job)
		}
		t.commit(job, size)
	}
}

// store writes a taken job's object: payload and trailer to tmp, the
// write time as its mtime, sync, rename. The payload goes through t.bw:
// a snapshot is serialized here and hashed in the same pass, and an
// output image's trailer is the digest its job carries. It returns the
// payload size, or -1 when the object is not in place.
func (t *DiskTier) store(job *diskJob) int64 {
	size := int64(job.data.Len())
	if job.snap != nil {
		size = int64(job.snap.MarshalSize())
	}
	if size > t.idx.budget {
		return -1
	}
	tmp := filepath.Join(t.dir, "tmp", job.key.String()+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return -1
	}
	sum := job.sum
	if job.snap != nil {
		h := sha256.New()
		t.bw.Reset(io.MultiWriter(f, h))
		err = job.snap.Stream(t.bw)
		h.Sum(sum[:0])
	} else {
		t.bw.Reset(f)
		for _, p := range job.data.Pages() {
			t.bw.Write(p)
		}
		err = t.bw.Flush() // errors stick in t.bw until here
	}
	t.bw.Reset(nil) // keep no reference to the file
	if err == nil {
		_, err = f.Write(sum[:])
	}
	if err == nil {
		// Each object's mtime is strictly later than the last one's, so
		// a reopen's oldest-first order is write order even where the
		// filesystem clock is coarser than the writes.
		now := time.Now()
		if !now.After(t.stamp) {
			now = t.stamp.Add(time.Microsecond)
		}
		t.stamp = now
		err = os.Chtimes(tmp, now, now)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	dst := t.objectPath(job.key)
	if err == nil {
		err = os.MkdirAll(filepath.Dir(dst), 0o755)
	}
	if err == nil {
		err = os.Rename(tmp, dst)
	}
	if err != nil {
		os.Remove(tmp)
		return -1
	}
	return size
}

// commit retires a finished job from pending and indexes its stored
// object (of the given payload size, -1 when nothing was stored), then
// evicts. A job delSnap discarded while it was being written leaves no
// entry and no object behind.
func (t *DiskTier) commit(job *diskJob, size int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pending[job.key] == job {
		delete(t.pending, job.key)
	}
	if size < 0 {
		return
	}
	if job.dropped {
		os.Remove(t.objectPath(job.key))
		return
	}
	t.evictLocked(t.idx.put(job.key, struct{}{}, size))
}

// get returns the output image spilled under key with its SHA-256, or
// ok=false: a pending spill's image and carried digest, or the pages of
// a verified disk read, with the bytes read in raw. Nil-safe.
func (t *DiskTier) get(key Key, inj *fault.Injector) (raw []byte, img core.Image, sum [sha256.Size]byte, ok bool) {
	if t == nil {
		return nil, img, sum, false
	}
	raw, job, ok := t.fetch(key, inj)
	if raw != nil {
		job.data = core.NewImage(raw)
	}
	return raw, job.data, job.sum, ok
}

// getSnap / putSnapAsync store one most-recent placement snapshot per
// ancestor index key, content-addressed under a derived key. getSnap
// answers a pending spill with the spilled snapshot itself, and
// otherwise parses the digest-verified object; an unparseable object is
// deleted.
func (t *DiskTier) getSnap(anc string, inj *fault.Injector) (*core.Snapshot, bool) {
	if t == nil {
		return nil, false
	}
	raw, job, ok := t.fetch(snapDiskKey(anc), inj)
	if !ok || job.snap != nil {
		return job.snap, ok
	}
	snap, err := core.UnmarshalSnapshot(raw)
	if err != nil {
		t.delSnap(anc)
		return nil, false
	}
	return snap, true
}

// putSnapAsync spills snap, which the tier keeps and serializes on its
// writer goroutine; the caller must never modify it again. Nil-safe.
func (t *DiskTier) putSnapAsync(anc string, snap *core.Snapshot) {
	if t == nil {
		return
	}
	t.spill(&diskJob{key: snapDiskKey(anc), snap: snap})
}

// fetch answers a read of key: a copy of the pending job when one is
// queued or being written, else the object's payload in raw, verified
// against its trailer, and that digest in job.sum. A
// short or mismatched object is quarantined and its entry dropped. inj
// may arm fault.DiskTierCorrupt, which flips one byte of a disk read
// before verification — the check must turn it into a quarantined miss.
func (t *DiskTier) fetch(key Key, inj *fault.Injector) (raw []byte, job diskJob, ok bool) {
	t.mu.Lock()
	if p := t.pending[key]; p != nil {
		job = *p
		t.stats.PendingHits++
		t.mu.Unlock()
		return nil, job, true
	}
	// A read promotes the entry before it is verified; a failed check
	// removes it anyway.
	e := t.idx.get(key)
	if e == nil {
		t.stats.Misses++
		t.mu.Unlock()
		return nil, job, false
	}
	t.mu.Unlock()

	raw, err := os.ReadFile(t.objectPath(key))
	if err == nil && inj.Fires(fault.DiskTierCorrupt, key.site()) && len(raw) > 0 {
		raw[inj.Pick(fault.DiskTierCorrupt, key.site(), len(raw))] ^= 0xFF
	}
	n := len(raw) - trailerSize
	if err != nil || n < 0 || sha256.Sum256(raw[:n]) != [sha256.Size]byte(raw[n:]) {
		t.quarantine(e, err == nil)
		return nil, job, false
	}
	t.mu.Lock()
	t.stats.Hits++
	t.mu.Unlock()
	job.sum = [sha256.Size]byte(raw[n:])
	return raw[:n:n], job, true
}

// delSnap discards an ancestor's snapshot slot: its pending spill, its
// index entry and its object.
func (t *DiskTier) delSnap(anc string) {
	if t == nil {
		return
	}
	key := snapDiskKey(anc)
	t.mu.Lock()
	defer t.mu.Unlock()
	if job := t.pending[key]; job != nil {
		job.dropped = true
		delete(t.pending, key)
	}
	if e := t.idx.peek(key); e != nil {
		t.idx.remove(e)
		os.Remove(t.objectPath(key))
	}
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

// quarantine handles a failed read: the entry leaves the index, and a
// corrupt file is moved aside for postmortem rather than deleted.
// fileOK reports whether the object file was readable (false: it
// vanished; nothing to move).
func (t *DiskTier) quarantine(e *diskNode, fileOK bool) {
	t.mu.Lock()
	t.idx.remove(e)
	t.stats.Corrupt++
	t.mu.Unlock()
	if fileOK {
		os.Rename(t.objectPath(e.key), filepath.Join(t.dir, "quarantine", e.key.String()))
	}
}

// evictLocked drops cold entries until the byte budget holds, removing
// each victim's object. keep, when non-nil, is never evicted (the entry
// just inserted). Caller holds t.mu.
func (t *DiskTier) evictLocked(keep *diskNode) {
	t.idx.evict(keep, func(victim *diskNode) {
		t.stats.Evicted++
		os.Remove(t.objectPath(victim.key))
	})
}

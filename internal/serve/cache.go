package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"unsafe"

	"zipr"
	"zipr/internal/core"
)

// Key is a content address for one (input image, rewrite configuration)
// pair: SHA-256 of the serialized input folded with SHA-256 of the
// canonical Config fingerprint. Identical keys imply byte-identical
// rewrite output (the pipeline is deterministic), which is what lets
// the cache answer repeat requests without touching the pipeline.
type Key [sha256.Size]byte

// String renders the key as lowercase hex (the wire/log form).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// site derives the deterministic fault-injection site for this key, so
// chaos decisions about a request are a pure function of its content.
func (k Key) site() uint32 { return binary.LittleEndian.Uint32(k[:4]) }

// CacheKey computes the content address of one rewrite request.
func CacheKey(input []byte, cfg zipr.Config) Key {
	return keyOf(sha256.Sum256(input), fingerprintSum(cfg))
}

// fingerprintSum is the SHA-256 of cfg's canonical fingerprint.
func fingerprintSum(cfg zipr.Config) [sha256.Size]byte {
	return sha256.Sum256([]byte(cfg.Fingerprint()))
}

// keyOf folds an input digest and a fingerprint digest into the content
// address. The server hashes each request's input and fingerprint once
// and hands the digests on: the input digest becomes a rebased
// snapshot's InDigest, the fingerprint digest its ancestor index key.
func keyOf(inSum, fpSum [sha256.Size]byte) Key {
	var both [2 * sha256.Size]byte
	copy(both[:], inSum[:])
	copy(both[sha256.Size:], fpSum[:])
	return sha256.Sum256(both[:])
}

// cachedReport is the part of a rewrite's report that survives caching,
// shared by output-cache entries and snapshot-store entries. Pointers
// into pipeline state (Trace, IRDB, AddrMap) are deliberately not
// cached; requests that need them take the miss path.
type cachedReport struct {
	stats    zipr.Stats
	layout   string
	warnings []string
}

func keepReport(rep *zipr.Report) cachedReport {
	return cachedReport{
		stats:    rep.Stats,
		layout:   rep.Layout,
		warnings: append([]string(nil), rep.Warnings...),
	}
}

// report rebuilds the report a cold rewrite produced, minus per-run
// pipeline state, for an answer of outSize bytes to an input of inSize
// bytes.
func (r *cachedReport) report(inSize, outSize int) *zipr.Report {
	return &zipr.Report{
		Stats:      r.stats,
		Layout:     r.layout,
		Warnings:   append([]string(nil), r.warnings...),
		InputSize:  inSize,
		OutputSize: outSize,
	}
}

// entry is one cached rewrite: the output image plus its report. sum
// pins the output bytes so corruption of a cached entry is detected on
// hit instead of being served; cachePut's caller supplies it from where
// the image was made or verified. The output cache is an lru[entry]
// over distinct image pages; the Server serializes access under its
// mutex.
type entry struct {
	img core.Image
	sum [sha256.Size]byte
	cachedReport
}

// pageRefs counts, for one store, the entries that hold each shared
// allocation (an image page, a snapshot's unit or span table), so the
// store charges it once, while any entry holds it.
type pageRefs map[unsafe.Pointer]int

// hold adds (d = 1) or drops (d = -1) one holder of the allocation
// behind s, and returns its size when that is its first or last holder.
func hold[T any](r pageRefs, s []T, d int) int64 {
	p := unsafe.Pointer(unsafe.SliceData(s))
	was := r[p]
	if r[p] += d; r[p] == 0 {
		delete(r, p)
	}
	if min(was, r[p]) > 0 {
		return 0 // another entry holds it
	}
	return sizeOf(s)
}

// sizeOf is the size of s's elements in bytes.
func sizeOf[T any](s []T) int64 { return int64(len(s)) * int64(unsafe.Sizeof(s[0])) }

// image holds or drops img's pages and returns the bytes that changes.
func (r pageRefs) image(img core.Image, d int) (n int64) {
	for _, p := range img.Pages() {
		n += hold(r, p, d)
	}
	return n
}

// snapshot holds or drops s, whose fixed part every entry pays, so a
// lone snapshot costs its SizeBytes.
func (r pageRefs) snapshot(s *core.Snapshot, d int) int64 {
	n := s.SizeBytes() + r.image(s.Input, d) + r.image(s.Output, d) + hold(r, s.Units, d) + hold(r, s.Spans, d)
	return n - int64(s.Input.Len()+s.Output.Len()) - sizeOf(s.Units) - sizeOf(s.Spans)
}

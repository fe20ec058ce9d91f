package core

import (
	"bytes"
	"crypto/sha256"
)

// PageSize is the granule images are stored in.
const PageSize = 4 << 10

// Image is an immutable byte image held as a list of PageSize pages
// (the last may be shorter), each its own allocation, so images derived
// from one another share the pages they leave equal and a page lives as
// long as its last holder.
type Image struct {
	pages [][]byte
	size  int
}

// NewImage copies b into fresh pages.
func NewImage(b []byte) Image { return Image{}.share(b) }

// share returns b as an image that reuses each page of m holding the
// same bytes at the same position and copies the others.
func (m Image) share(b []byte) Image {
	n := Image{pages: make([][]byte, 0, (len(b)+PageSize-1)/PageSize), size: len(b)}
	for off := 0; off < len(b); off += PageSize {
		p := b[off:min(off+PageSize, len(b))]
		if i := off / PageSize; i < len(m.pages) && bytes.Equal(m.pages[i], p) {
			p = m.pages[i]
		} else {
			p = bytes.Clone(p)
		}
		n.pages = append(n.pages, p)
	}
	return n
}

// Len is the image's length in bytes.
func (m Image) Len() int { return m.size }

// Pages returns the image's pages. They are shared: never write them.
func (m Image) Pages() [][]byte { return m.pages }

// Bytes returns a flat copy of the image.
func (m Image) Bytes() []byte { return bytes.Join(m.pages, nil) }

// sum is the image's SHA-256.
func (m Image) sum() [sha256.Size]byte {
	h := sha256.New()
	for _, p := range m.pages {
		h.Write(p)
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// at calls fn on each page's piece of [off, off+n), inside the image,
// with its page index and offset in the range, until fn returns false.
func (m Image) at(off, n int, fn func(page, lo int, b []byte) bool) bool {
	for lo := 0; lo < n; {
		i, o := (off+lo)/PageSize, (off+lo)%PageSize
		k := min(len(m.pages[i])-o, n-lo)
		if !fn(i, lo, m.pages[i][o:o+k]) {
			return false
		}
		lo += k
	}
	return true
}

// equal reports whether the image holds b at offset off.
func (m Image) equal(off int, b []byte) bool {
	return m.at(off, len(b), func(_, lo int, p []byte) bool { return bytes.Equal(p, b[lo:lo+len(p)]) })
}

// read appends the n bytes at offset off to b.
func (m Image) read(b []byte, off, n int) []byte {
	m.at(off, n, func(_, _ int, p []byte) bool { b = append(b, p...); return true })
	return b
}

// patch writes b at offset off of m, whose page list is its own: a page
// m still shares with base is copied before it is written.
func (m Image) patch(base Image, off int, b []byte) {
	m.at(off, len(b), func(i, lo int, p []byte) bool {
		if &m.pages[i][0] == &base.pages[i][0] {
			m.pages[i] = bytes.Clone(base.pages[i])
			p = m.pages[i][(off+lo)%PageSize:][:len(p)]
		}
		copy(p, b[lo:])
		return true
	})
}

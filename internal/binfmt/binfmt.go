// Package binfmt defines ZELF, the on-disk container format for ZVM-32
// programs and shared libraries. A ZELF file carries an entry point, a set
// of segments (text is read-execute, data is read-write), an export table
// (for libraries), an import table (resolved by the loader into GOT slots
// in the data segment), and the names of required libraries. The format
// fills the role ELF plays in the paper: it is what the rewriter consumes
// and produces, and file-size overhead is measured on its serialized form.
package binfmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// Magic identifies a ZELF file.
var Magic = [4]byte{'Z', 'E', 'L', 'F'}

// Version is the current format version.
const Version uint16 = 1

// Type distinguishes executables from shared libraries.
type Type uint8

// Binary types.
const (
	Exec Type = iota + 1 // executable: Entry is the start address
	Lib                  // shared library: entered only via exports
)

// SegKind is the kind (and implied permissions) of a segment.
type SegKind uint8

// Segment kinds.
const (
	Text SegKind = iota + 1 // read + execute
	Data                    // read + write
)

// Unmarshal errors.
var (
	ErrBadMagic   = errors.New("binfmt: bad magic")
	ErrBadVersion = errors.New("binfmt: unsupported version")
	ErrCorrupt    = errors.New("binfmt: corrupt file")
)

// Segment is a contiguous region mapped at a fixed virtual address.
type Segment struct {
	Kind  SegKind
	VAddr uint32
	Data  []byte
}

// End returns the first address past the segment.
func (s *Segment) End() uint32 { return s.VAddr + uint32(len(s.Data)) }

// Contains reports whether addr falls inside the segment.
func (s *Segment) Contains(addr uint32) bool {
	return addr >= s.VAddr && addr < s.End()
}

// Symbol names an address, used for exports and optional debug symbols.
type Symbol struct {
	Name string
	Addr uint32
}

// Import names a symbol provided by another binary. The loader writes the
// resolved address into the 4-byte GOT slot at GotAddr (which must lie in
// a data segment); code reaches the import by loading that slot and
// branching indirectly.
type Import struct {
	Name    string
	GotAddr uint32
}

// Binary is an in-memory ZELF image.
type Binary struct {
	Type     Type
	Entry    uint32 // start address (Exec only)
	Segments []Segment
	Exports  []Symbol // addresses callable from other binaries
	Imports  []Import
	Libs     []string // names of required libraries, resolution order
}

// Text returns the first text segment, or nil.
func (b *Binary) Text() *Segment { return b.findSeg(Text) }

// DataSeg returns the first data segment, or nil.
func (b *Binary) DataSeg() *Segment { return b.findSeg(Data) }

func (b *Binary) findSeg(k SegKind) *Segment {
	for i := range b.Segments {
		if b.Segments[i].Kind == k {
			return &b.Segments[i]
		}
	}
	return nil
}

// SegmentAt returns the segment containing addr, or nil.
func (b *Binary) SegmentAt(addr uint32) *Segment {
	for i := range b.Segments {
		if b.Segments[i].Contains(addr) {
			return &b.Segments[i]
		}
	}
	return nil
}

// ReadWord reads the little-endian 32-bit word at addr, if addr..addr+4
// lies within one segment.
func (b *Binary) ReadWord(addr uint32) (uint32, bool) {
	seg := b.SegmentAt(addr)
	if seg == nil || addr+4 > seg.End() || addr+4 < addr {
		return 0, false
	}
	off := addr - seg.VAddr
	return binary.LittleEndian.Uint32(seg.Data[off : off+4]), true
}

// ExportAddr returns the address of the named export.
func (b *Binary) ExportAddr(name string) (uint32, bool) {
	for _, e := range b.Exports {
		if e.Name == name {
			return e.Addr, true
		}
	}
	return 0, false
}

// Validate checks structural invariants: a text segment exists, segments
// do not overlap, GOT slots lie in data segments, exports lie in some
// segment, and (for executables) the entry lies in text.
func (b *Binary) Validate() error {
	if b.Type != Exec && b.Type != Lib {
		return fmt.Errorf("binfmt: bad binary type %d", b.Type)
	}
	text := b.Text()
	if text == nil {
		return errors.New("binfmt: no text segment")
	}
	segs := make([]Segment, len(b.Segments))
	copy(segs, b.Segments)
	sort.Slice(segs, func(i, j int) bool { return segs[i].VAddr < segs[j].VAddr })
	for i := range segs {
		// A segment whose end wraps the 32-bit address space would make
		// End() lie to every range check downstream.
		if uint64(segs[i].VAddr)+uint64(len(segs[i].Data)) > 1<<32 {
			return fmt.Errorf("binfmt: segment at %#x overflows the address space", segs[i].VAddr)
		}
		if i > 0 && segs[i-1].End() > segs[i].VAddr {
			return fmt.Errorf("binfmt: segments overlap at %#x", segs[i].VAddr)
		}
	}
	if b.Type == Exec && !text.Contains(b.Entry) {
		return fmt.Errorf("binfmt: entry %#x outside text", b.Entry)
	}
	for _, im := range b.Imports {
		seg := b.SegmentAt(im.GotAddr)
		if seg == nil || seg.Kind != Data || im.GotAddr+4 > seg.End() {
			return fmt.Errorf("binfmt: import %q GOT slot %#x not in data", im.Name, im.GotAddr)
		}
	}
	for _, e := range b.Exports {
		if b.SegmentAt(e.Addr) == nil {
			return fmt.Errorf("binfmt: export %q addr %#x unmapped", e.Name, e.Addr)
		}
	}
	return nil
}

// FileSize returns the size in bytes of the serialized binary, or 0
// where Marshal fails. This is the "file size" metric of the CGC
// evaluation; it is computed from the lengths, without serializing.
func (b *Binary) FileSize() int {
	n, err := b.size()
	if err != nil {
		return 0
	}
	return n
}

// headerSize is the fixed part of a ZELF file: magic, version, type,
// pad, entry and the four table counts.
const headerSize = 4 + 2 + 1 + 1 + 4 + 4*2

// segHeaderSize frames each segment's payload: kind, three pad bytes,
// virtual address and payload length.
const segHeaderSize = 4 + 4 + 4

// DataOffset returns the file offset of seg's payload in b.Marshal()'s
// output, or -1 when seg is not one of b's segments.
func (b *Binary) DataOffset(seg *Segment) int {
	off := headerSize
	for i := range b.Segments {
		off += segHeaderSize
		if &b.Segments[i] == seg {
			return off
		}
		off += len(b.Segments[i].Data)
	}
	return -1
}

// size validates the binary as Marshal does, failing exactly where
// Marshal fails, and returns the size of its serialized form.
func (b *Binary) size() (int, error) {
	if err := b.Validate(); err != nil {
		return 0, err
	}
	for _, c := range []struct {
		what string
		n    int
	}{
		{"segments", len(b.Segments)},
		{"exports", len(b.Exports)},
		{"imports", len(b.Imports)},
		{"libs", len(b.Libs)},
	} {
		if c.n > 0xFFFF {
			return 0, fmt.Errorf("binfmt: too many %s (%d)", c.what, c.n)
		}
	}
	n := headerSize
	for _, s := range b.Segments {
		n += segHeaderSize + len(s.Data)
	}
	str := func(s string) error {
		if len(s) > 0xFFFF {
			return fmt.Errorf("binfmt: string too long (%d bytes)", len(s))
		}
		n += 2 + len(s)
		return nil
	}
	for _, e := range b.Exports {
		if err := str(e.Name); err != nil {
			return 0, err
		}
		n += 4
	}
	for _, im := range b.Imports {
		if err := str(im.Name); err != nil {
			return 0, err
		}
		n += 4
	}
	for _, l := range b.Libs {
		if err := str(l); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// Clone returns a deep copy of the binary.
func (b *Binary) Clone() *Binary {
	nb := &Binary{Type: b.Type, Entry: b.Entry}
	nb.Segments = make([]Segment, len(b.Segments))
	for i, s := range b.Segments {
		nb.Segments[i] = Segment{Kind: s.Kind, VAddr: s.VAddr, Data: append([]byte(nil), s.Data...)}
	}
	nb.Exports = append([]Symbol(nil), b.Exports...)
	nb.Imports = append([]Import(nil), b.Imports...)
	nb.Libs = append([]string(nil), b.Libs...)
	return nb
}

// Marshal serializes the binary to its on-disk representation, into a
// buffer allocated once at its final size.
func (b *Binary) Marshal() ([]byte, error) {
	n, err := b.size()
	if err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	buf := make([]byte, 0, n)
	buf = append(buf, Magic[:]...)
	buf = le.AppendUint16(buf, Version)
	buf = append(buf, byte(b.Type), 0)
	buf = le.AppendUint32(buf, b.Entry)
	buf = le.AppendUint16(buf, uint16(len(b.Segments)))
	buf = le.AppendUint16(buf, uint16(len(b.Exports)))
	buf = le.AppendUint16(buf, uint16(len(b.Imports)))
	buf = le.AppendUint16(buf, uint16(len(b.Libs)))
	for _, s := range b.Segments {
		buf = append(buf, byte(s.Kind), 0, 0, 0)
		buf = le.AppendUint32(buf, s.VAddr)
		buf = le.AppendUint32(buf, uint32(len(s.Data)))
		buf = append(buf, s.Data...)
	}
	str := func(s string) {
		buf = le.AppendUint16(buf, uint16(len(s)))
		buf = append(buf, s...)
	}
	for _, e := range b.Exports {
		str(e.Name)
		buf = le.AppendUint32(buf, e.Addr)
	}
	for _, im := range b.Imports {
		str(im.Name)
		buf = le.AppendUint32(buf, im.GotAddr)
	}
	for _, l := range b.Libs {
		str(l)
	}
	return buf, nil
}

// Unmarshal parses a serialized ZELF image.
func Unmarshal(data []byte) (*Binary, error) {
	r := &reader{data: data}
	var magic [4]byte
	if err := r.bytes(magic[:]); err != nil {
		return nil, err
	}
	if magic != Magic {
		return nil, ErrBadMagic
	}
	ver, err := r.u16()
	if err != nil {
		return nil, err
	}
	if ver != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	b := &Binary{}
	t, err := r.u8()
	if err != nil {
		return nil, err
	}
	b.Type = Type(t)
	if _, err := r.u8(); err != nil { // pad
		return nil, err
	}
	if b.Entry, err = r.u32(); err != nil {
		return nil, err
	}
	nSeg, err := r.u16()
	if err != nil {
		return nil, err
	}
	nExp, err := r.u16()
	if err != nil {
		return nil, err
	}
	nImp, err := r.u16()
	if err != nil {
		return nil, err
	}
	nLib, err := r.u16()
	if err != nil {
		return nil, err
	}
	b.Segments = make([]Segment, 0, nSeg)
	for i := 0; i < int(nSeg); i++ {
		k, err := r.u8()
		if err != nil {
			return nil, err
		}
		var pad [3]byte
		if err := r.bytes(pad[:]); err != nil {
			return nil, err
		}
		vaddr, err := r.u32()
		if err != nil {
			return nil, err
		}
		size, err := r.u32()
		if err != nil {
			return nil, err
		}
		if size > uint32(len(r.data)) {
			return nil, ErrCorrupt
		}
		seg := Segment{Kind: SegKind(k), VAddr: vaddr, Data: make([]byte, size)}
		if err := r.bytes(seg.Data); err != nil {
			return nil, err
		}
		b.Segments = append(b.Segments, seg)
	}
	for i := 0; i < int(nExp); i++ {
		name, err := r.str()
		if err != nil {
			return nil, err
		}
		addr, err := r.u32()
		if err != nil {
			return nil, err
		}
		b.Exports = append(b.Exports, Symbol{Name: name, Addr: addr})
	}
	for i := 0; i < int(nImp); i++ {
		name, err := r.str()
		if err != nil {
			return nil, err
		}
		addr, err := r.u32()
		if err != nil {
			return nil, err
		}
		b.Imports = append(b.Imports, Import{Name: name, GotAddr: addr})
	}
	for i := 0; i < int(nLib); i++ {
		name, err := r.str()
		if err != nil {
			return nil, err
		}
		b.Libs = append(b.Libs, name)
	}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return b, nil
}

// reader is a bounds-checked little-endian cursor over a byte slice.
type reader struct {
	data []byte
	off  int
}

func (r *reader) bytes(dst []byte) error {
	if r.off+len(dst) > len(r.data) {
		return ErrCorrupt
	}
	copy(dst, r.data[r.off:])
	r.off += len(dst)
	return nil
}

func (r *reader) u8() (uint8, error) {
	if r.off+1 > len(r.data) {
		return 0, ErrCorrupt
	}
	v := r.data[r.off]
	r.off++
	return v, nil
}

func (r *reader) u16() (uint16, error) {
	if r.off+2 > len(r.data) {
		return 0, ErrCorrupt
	}
	v := binary.LittleEndian.Uint16(r.data[r.off:])
	r.off += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if r.off+4 > len(r.data) {
		return 0, ErrCorrupt
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) str() (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	if r.off+int(n) > len(r.data) {
		return "", ErrCorrupt
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

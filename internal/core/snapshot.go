// Placement snapshots for incremental (delta) rewriting.
//
// A Snapshot captures everything needed to answer a rewrite of a
// *slightly edited* input without running the pipeline: the ancestor
// input and output images with their SHA-256 digests, the delta-eligible
// function units, and for every unit its editable spans: maximal runs of
// consecutive "freely editable" instructions that the rewrite placed
// contiguously and verbatim, each recorded as one input range and its
// placed address in the output. Apply admits an edited input when every
// changed byte lies in a span, and every changed instruction there —
// found by decoding the span from its start, as capture did — keeps its
// opcode, condition, registers and length, with an immediate that is
// inert for the conservative analyses (address-shaped movi/pushi
// immediates and stack-pointer adjustments under frame-sensitive
// transforms are excluded); it then patches the new encodings directly
// into the ancestor output.
//
// The ancestor images are Images, lists of PageSize pages. Apply's
// output shares every ancestor output page but the ones it patches,
// and Rebase's input every ancestor input page the edit left equal, so
// a lineage of rebased snapshots holds each untouched page once.
//
// Why that is sound: the pipeline is deterministic, and every analysis
// decision it makes is a function of instruction *structure* (boundaries,
// opcodes, link topology, pin set), never of a free immediate's value.
// Disassembly boundaries are unchanged because edits preserve encoded
// lengths; reachability and the function partition are unchanged because
// branch links are unchanged; the pin set is unchanged because
// address-shaped immediates are excluded (movi/pushi immediates seed
// both the weak disassembler tier and the pin scan, so those must not
// change unless provably out of text in both versions); transform
// decisions are unchanged because instructions they inspect beyond
// structure (sp adjustments under StackPad/Canary) are excluded; and the
// placer then sees an isomorphic IR with identical sizes, pins, hints
// and seeds, reproducing the ancestor layout decision for decision.
// A from-scratch rewrite of the edited input therefore emits exactly the
// ancestor image with the edited instructions re-encoded in place — which
// is what Apply constructs. Every precondition failure returns
// ErrDeltaInapplicable and the caller falls back to a full rewrite, so
// coverage gaps cost latency, never correctness; the differential golden
// corpus and FuzzDeltaEquivalence enforce the equivalence empirically.
package core

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"unsafe"

	"zipr/internal/ir"
	"zipr/internal/isa"
)

// Delta errors. Inapplicable means the edit falls outside the supported
// class (fall back to a full rewrite); Stale means the snapshot itself
// failed verification (evict it, then fall back).
var (
	ErrDeltaInapplicable = errors.New("core: delta inapplicable")
	ErrSnapshotStale     = errors.New("core: placement snapshot stale")
)

// SnapSpan is a maximal run of consecutive freely editable instructions
// of a unit that the rewrite placed contiguously and verbatim: the input
// bytes [unit start+Off, +Len) sit unchanged at output address Placed.
type SnapSpan struct {
	Off, Len, Placed uint32
}

// SnapUnit is one delta-eligible function unit: an original-address
// interval (ir.PartitionUnits) that the relocatable decode tiles exactly,
// and its editable spans Snapshot.Spans[Lo:Hi], in address order.
type SnapUnit struct {
	Range  ir.Range
	Lo, Hi uint32
}

// Snapshot is a placement snapshot of one completed rewrite. Build one
// with BuildSnapshot + Finish (zipr.Rewrite does this under
// Config.CaptureSnapshot); answer edited inputs with Apply.
//
// The image digests are checked when a snapshot enters a store, not on
// every Apply: Finish and Rebase compute them from the bytes they keep,
// UnmarshalSnapshot verifies them, and a stored snapshot is never
// written again. Call Verify on a snapshot whose images may have changed
// since.
type Snapshot struct {
	// Arch is the ISA the ancestor images are encoded in: Apply decodes
	// edits under it. nil means ZVM-32, as for ir.Program.Arch.
	Arch isa.Arch
	// Fingerprint is the Config.Fingerprint the rewrite ran under; delta
	// is only valid between identical fingerprints.
	Fingerprint string
	// Input and Output are the ancestor images with their SHA-256
	// digests, which Verify checks (UnmarshalSnapshot calls it, so a
	// rotted blob degrades instead of patching garbage).
	Input, Output       Image
	InDigest, OutDigest [sha256.Size]byte
	// Text geometry: virtual bounds of the input text segment (immediate
	// inertness checks) and the file offsets of the text payloads inside
	// the serialized input/output images.
	InTextVA, InTextEnd    uint32
	InTextOff              uint32
	OutTextVA              uint32
	OutTextOff, OutTextLen uint32
	// Units lists the delta-eligible units sorted by address; Spans holds
	// the editable spans of all of them, unit after unit.
	Units []SnapUnit
	Spans []SnapSpan
}

// DeltaInfo reports what an Apply did.
type DeltaInfo struct {
	UnitsChanged int // units whose bytes differed
	InstsChanged int // instructions re-encoded
}

// opEditable reports whether an opcode's immediate may be edited without
// consulting any analysis: all control transfers, PC-relative data
// references and address-forming leas are excluded (their operands are
// reference structure, not free content).
func opEditable(op isa.Op) bool {
	if (isa.Inst{Op: op}).IsBranch() {
		return false
	}
	switch op {
	case isa.OpLea, isa.OpLoadPC:
		return false
	}
	return true
}

// BuildSnapshot constructs the structural part of a snapshot from a
// completed reassembly: the unit partition and each unit's editable
// spans. The serialized input/output images are attached afterwards
// with Finish. frameSensitive marks configurations whose
// transforms read stack-pointer adjustment immediates (StackPad,
// Canary); sp adjustments are then not editable.
func BuildSnapshot(p *ir.Program, res *Result, frameSensitive bool, fingerprint string) (*Snapshot, error) {
	text := p.Bin.Text()
	if text == nil {
		return nil, fmt.Errorf("core: snapshot: no text segment")
	}
	outText := res.Binary.Text()
	if outText == nil {
		return nil, fmt.Errorf("core: snapshot: no output text segment")
	}
	arch := p.ISA()
	s := &Snapshot{
		Arch:        arch,
		Fingerprint: fingerprint,
		InTextVA:    text.VAddr,
		InTextEnd:   text.End(),
		OutTextVA:   outText.VAddr,
		OutTextLen:  uint32(len(outText.Data)),
	}
	inOff := p.Bin.DataOffset(text)
	outOff := res.Binary.DataOffset(outText)
	if inOff < 0 || outOff < 0 {
		return nil, fmt.Errorf("core: snapshot: segment offset unresolved")
	}
	s.InTextOff, s.OutTextOff = uint32(inOff), uint32(outOff)

	var spans []SnapSpan
	kept := 0 // spans[:kept] belong to recorded units
units:
	for _, u := range ir.PartitionUnits(p) {
		spans = spans[:kept] // drop the spans of a unit given up on
		// Units overlapping fixed ranges (embedded data, jump tables,
		// ambiguous decodes), empty or outside text, or with imperfect
		// decode tiling are simply not recorded: edits there fall outside
		// every unit and Apply rejects them, degrading to a full rewrite.
		if slices.ContainsFunc(p.Fixed, u.Overlaps) || u.Start >= u.End || u.Start < text.VAddr || u.End > text.End() {
			continue
		}
		for off := uint32(0); off < u.Len(); {
			addr := u.Start + off
			orig, err := arch.Decode(text.Data[addr-text.VAddr:], addr)
			if err != nil {
				continue units
			}
			n := p.At(addr)
			if n == nil || n.Deleted || n.OrigAddr != addr {
				// Hole in the relocatable decode (weak-only bytes, an
				// instruction a transform deleted): the unit cannot
				// vouch for every byte it spans.
				continue units
			}
			ln := uint32(arch.InstLen(orig))
			if off+ln > u.Len() {
				continue units // crosses the unit end
			}
			placed, ok := res.Layout.AddrOf(n)
			spAdd := (orig.Op == isa.OpAddI || orig.Op == isa.OpAddI8) && orig.Rd == isa.SP
			editable := ok && n.Target == nil && n.AbsTarget == 0 && n.Inst == orig &&
				opEditable(orig.Op) && !(frameSensitive && spAdd) &&
				placed >= s.OutTextVA && placed+ln <= s.OutTextVA+s.OutTextLen
			last := len(spans) - 1
			switch {
			case !editable:
			case last >= kept && spans[last].Off+spans[last].Len == off && spans[last].Placed+spans[last].Len == placed:
				spans[last].Len += ln // contiguous in the input and in the output
			default:
				spans = append(spans, SnapSpan{Off: off, Len: ln, Placed: placed})
			}
			off += ln
		}
		s.Units = append(s.Units, SnapUnit{Range: u, Lo: uint32(kept), Hi: uint32(len(spans))})
		kept = len(spans)
	}
	s.Spans = slices.Clone(spans[:kept]) // exact size: the snapshot may be stored for long
	return s, nil
}

// Finish attaches the serialized ancestor images, verifying the computed
// text payload offsets against them; a snapshot that fails verification
// is never exported.
func (s *Snapshot) Finish(input, output []byte) error {
	inLen := s.InTextEnd - s.InTextVA
	if uint32(len(input)) < s.InTextOff+inLen || uint32(len(output)) < s.OutTextOff+s.OutTextLen {
		return fmt.Errorf("core: snapshot: image shorter than text extent")
	}
	s.Input, s.Output = NewImage(input), NewImage(output)
	s.InDigest = sha256.Sum256(input)
	s.OutDigest = sha256.Sum256(output)
	// The span contract says the output bytes at each span's placed
	// address are its input bytes; verify the whole invariant once at
	// export so a violation disables delta here rather than surfacing as
	// an Apply-time stale error on every request.
	for _, u := range s.Units {
		for _, sp := range s.Spans[u.Lo:u.Hi] {
			in, okIn := s.inAt(len(input), u.Range.Start+sp.Off, sp.Len)
			out, okOut := s.outAt(len(output), sp.Placed, sp.Len)
			if !okIn || !okOut || !bytes.Equal(input[in:in+int(sp.Len)], output[out:out+int(sp.Len)]) {
				return fmt.Errorf("core: snapshot: placed bytes of %#x diverge from input encoding",
					u.Range.Start+sp.Off)
			}
		}
	}
	return nil
}

// inAt returns the file offset of [va, va+n) in the input text of an
// image of imgLen bytes with the ancestor input's geometry, or false
// when that range is outside it.
func (s *Snapshot) inAt(imgLen int, va, n uint32) (int, bool) {
	return textAt(imgLen, s.InTextOff, s.InTextVA, s.InTextEnd-s.InTextVA, va, n)
}

// outAt is inAt for the output text of an image with the ancestor
// output's geometry.
func (s *Snapshot) outAt(imgLen int, va, n uint32) (int, bool) {
	return textAt(imgLen, s.OutTextOff, s.OutTextVA, s.OutTextLen, va, n)
}

// textAt returns the offset of [va, va+n) of the text segment at file
// offset off, virtual address base and length size in an image of
// imgLen bytes, or false when the range is not inside that segment or
// the segment not inside the image.
func textAt(imgLen int, off, base, size, va, n uint32) (int, bool) {
	if va < base || uint64(va-base)+uint64(n) > uint64(size) {
		return 0, false
	}
	lo := uint64(off) + uint64(va-base)
	return int(lo), lo+uint64(n) <= uint64(imgLen)
}

// Verify checks the snapshot's internal integrity: image digests intact,
// geometry coherent and unit and span tables well formed. Returns
// ErrSnapshotStale on any mismatch.
func (s *Snapshot) Verify() error {
	if err := s.checkGeometry(); err != nil {
		return err
	}
	if err := s.checkUnits(); err != nil {
		return err
	}
	if s.Input.sum() != s.InDigest || s.Output.sum() != s.OutDigest {
		return fmt.Errorf("%w: image digest mismatch", ErrSnapshotStale)
	}
	return nil
}

// checkGeometry is the part of Verify that Apply repeats: both images
// present and the text extents inside them.
func (s *Snapshot) checkGeometry() error {
	if s.Input.Len() == 0 || s.Output.Len() == 0 {
		return fmt.Errorf("%w: images missing", ErrSnapshotStale)
	}
	if s.InTextVA > s.InTextEnd ||
		uint64(s.InTextOff)+uint64(s.InTextEnd-s.InTextVA) > uint64(s.Input.Len()) ||
		uint64(s.OutTextOff)+uint64(s.OutTextLen) > uint64(s.Output.Len()) {
		return fmt.Errorf("%w: text geometry out of bounds", ErrSnapshotStale)
	}
	return nil
}

// checkUnits checks the unit and span tables: units in address order,
// disjoint and inside input text; each unit's spans non-empty, in order,
// disjoint and inside it.
func (s *Snapshot) checkUnits() error {
	end := s.InTextVA
	for _, u := range s.Units {
		if u.Range.Start < end || u.Range.Start > u.Range.End || u.Range.End > s.InTextEnd ||
			u.Lo > u.Hi || int(u.Hi) > len(s.Spans) {
			return fmt.Errorf("%w: unit %+v out of order or outside text", ErrSnapshotStale, u.Range)
		}
		end = u.Range.End
		pos := uint32(0)
		for _, sp := range s.Spans[u.Lo:u.Hi] {
			if sp.Len == 0 || sp.Off < pos || sp.Off > u.Range.Len() || sp.Len > u.Range.Len()-sp.Off {
				return fmt.Errorf("%w: span %+v empty, out of order or outside unit %+v",
					ErrSnapshotStale, sp, u.Range)
			}
			pos = sp.Off + sp.Len
		}
	}
	return nil
}

// Apply answers a rewrite of input using the snapshot: if every byte
// that differs from the ancestor input lies in an editable span of a
// recorded unit and only changes immediates there, it returns the
// ancestor output with the edited instructions re-encoded at their
// placed addresses — byte for byte what a from-scratch rewrite of input
// produces. The result shares every page of the ancestor output that no
// edit touched. Otherwise it returns ErrDeltaInapplicable (unsupported edit;
// run the pipeline) or ErrSnapshotStale (snapshot failed verification;
// evict it). Apply checks the geometry, that each changed span re-tiles
// into whole instructions, and the output bytes it patches over, but
// does not rehash the images: the snapshot's digests were checked when
// it entered its store (see Snapshot).
func (s *Snapshot) Apply(input []byte) (Image, *DeltaInfo, error) {
	if err := s.checkGeometry(); err != nil {
		return Image{}, nil, err
	}
	if len(input) != s.Input.Len() {
		return Image{}, nil, fmt.Errorf("%w: input length %d != ancestor %d",
			ErrDeltaInapplicable, len(input), s.Input.Len())
	}

	// Every byte outside the recorded units must be identical: walk the
	// gaps between unit file-ranges (units are address-sorted).
	pos := 0
	for i := range s.Units {
		u := &s.Units[i]
		lo := int(s.InTextOff + (u.Range.Start - s.InTextVA))
		hi := int(s.InTextOff + (u.Range.End - s.InTextVA))
		if !s.Input.equal(pos, input[pos:lo]) {
			return Image{}, nil, fmt.Errorf("%w: edit outside function units", ErrDeltaInapplicable)
		}
		pos = hi
	}
	if !s.Input.equal(pos, input[pos:]) {
		return Image{}, nil, fmt.Errorf("%w: edit outside function units", ErrDeltaInapplicable)
	}

	arch := isa.Of(s.Arch)
	out := Image{pages: slices.Clone(s.Output.pages), size: s.Output.size}
	info := &DeltaInfo{}
	for ui := range s.Units {
		u := &s.Units[ui]
		at, ok := s.inAt(len(input), u.Range.Start, u.Range.Len())
		if !ok {
			return Image{}, nil, fmt.Errorf("%w: unit %+v out of bounds", ErrSnapshotStale, u.Range)
		}
		newU := input[at : at+int(u.Range.Len())]
		if s.Input.equal(at, newU) {
			continue
		}
		oldU := s.Input.read(nil, at, len(newU))
		// The unit's bytes moved. Bytes outside its spans belong to
		// instructions that are not freely editable and must not change;
		// inside a span, admit the edit instruction by instruction.
		info.UnitsChanged++
		spans := s.Spans[u.Lo:u.Hi]
		pos := uint32(0)
		for _, sp := range spans {
			if !bytes.Equal(oldU[pos:sp.Off], newU[pos:sp.Off]) {
				return Image{}, nil, fmt.Errorf("%w: edit in %+v outside its editable instructions",
					ErrDeltaInapplicable, u.Range)
			}
			pos = sp.Off + sp.Len
		}
		if !bytes.Equal(oldU[pos:], newU[pos:]) {
			return Image{}, nil, fmt.Errorf("%w: edit in %+v outside its editable instructions",
				ErrDeltaInapplicable, u.Range)
		}
		for _, sp := range spans {
			n, err := s.patchSpan(arch, out, u.Range.Start+sp.Off, sp.Placed,
				oldU[sp.Off:sp.Off+sp.Len], newU[sp.Off:sp.Off+sp.Len])
			if err != nil {
				return Image{}, nil, err
			}
			info.InstsChanged += n
		}
	}
	return out, info, nil
}

// patchSpan admits the edits of one span, input bytes was → now at
// address addr and placed at output address placed, and patches them
// into out, which holds its own copy of the ancestor output's page
// list; it returns how many instructions it re-encoded. A changed span
// is re-decoded from its start over the ancestor input, which is how
// capture found its boundaries; one that does not decode into whole
// instructions ending at its end means the snapshot is stale.
func (s *Snapshot) patchSpan(arch isa.Arch, out Image, addr, placed uint32, was, now []byte) (int, error) {
	if bytes.Equal(was, now) {
		return 0, nil
	}
	patched := 0
	for off := 0; off < len(was); {
		oldIn, err := arch.Decode(was[off:], addr)
		ln := 0
		if err == nil {
			ln = arch.InstLen(oldIn)
		}
		if ln == 0 || off+ln > len(was) {
			return 0, fmt.Errorf("%w: span at %#x does not re-tile", ErrSnapshotStale, addr)
		}
		oldB, newB := was[off:off+ln], now[off:off+ln]
		if !bytes.Equal(oldB, newB) {
			newIn, err := arch.Decode(newB, addr)
			if err != nil {
				return 0, fmt.Errorf("%w: edited bytes at %#x do not decode", ErrDeltaInapplicable, addr)
			}
			if newIn.Op != oldIn.Op || newIn.Cc != oldIn.Cc || newIn.Rd != oldIn.Rd ||
				newIn.Rs != oldIn.Rs || arch.InstLen(newIn) != ln {
				return 0, fmt.Errorf("%w: edit at %#x changes more than the immediate",
					ErrDeltaInapplicable, addr)
			}
			if oldIn.Op == isa.OpMovI || oldIn.Op == isa.OpPushI32 {
				// movi/pushi immediates feed the pin scan and the weak
				// disassembler seeds; both values must be provably inert
				// (outside text) or the analyses could diverge.
				for _, imm := range [2]uint32{uint32(oldIn.Imm), uint32(newIn.Imm)} {
					if imm >= s.InTextVA && imm < s.InTextEnd {
						return 0, fmt.Errorf("%w: immediate %#x at %#x is address-shaped",
							ErrDeltaInapplicable, imm, addr)
					}
				}
			}
			dst, ok := s.outAt(out.Len(), placed, uint32(ln))
			if !ok {
				return 0, fmt.Errorf("%w: placed range %#x out of output text", ErrSnapshotStale, placed)
			}
			if !out.equal(dst, oldB) {
				// The output must hold the old encoding exactly where the
				// snapshot says; anything else means the snapshot and
				// output disagree — never patch on top of that.
				return 0, fmt.Errorf("%w: output bytes at %#x diverge from recorded encoding",
					ErrSnapshotStale, placed)
			}
			out.patch(s.Output, dst, newB)
			patched++
		}
		off += ln
		addr += uint32(ln)
		placed += uint32(ln)
	}
	return patched, nil
}

// Rebase derives the snapshot of a delta-answered rewrite: same units
// and spans (the layout is identical by construction), new ancestor
// images. The units and spans are shared with the ancestor snapshot —
// they are immutable after build. The new input image shares every
// page of the ancestor input that input leaves equal and copies the
// others, and inDigest must be input's SHA-256 (the caller has it from
// keying the request); output, Apply's result, is kept as it is, and
// OutDigest is computed from it.
func (s *Snapshot) Rebase(input []byte, inDigest [sha256.Size]byte, output Image) *Snapshot {
	return &Snapshot{
		Arch:        s.Arch,
		Fingerprint: s.Fingerprint,
		Input:       s.Input.share(input),
		Output:      output,
		InDigest:    inDigest,
		OutDigest:   output.sum(),
		InTextVA:    s.InTextVA,
		InTextEnd:   s.InTextEnd,
		InTextOff:   s.InTextOff,
		OutTextVA:   s.OutTextVA,
		OutTextOff:  s.OutTextOff,
		OutTextLen:  s.OutTextLen,
		Units:       s.Units,
		Spans:       s.Spans,
	}
}

// Clone returns a deep copy of the snapshot that shares no memory with
// it, not even pages, for handing a stored snapshot to a caller who may
// modify it.
func (s *Snapshot) Clone() *Snapshot {
	c := *s
	c.Input = NewImage(s.Input.Bytes())
	c.Output = NewImage(s.Output.Bytes())
	c.Units = slices.Clone(s.Units)
	c.Spans = slices.Clone(s.Spans)
	return &c
}

// SizeBytes estimates the snapshot's resident size for byte-budget
// accounting when it shares nothing: a fixed part, the two images and
// the unit and span tables.
func (s *Snapshot) SizeBytes() int64 {
	return int64(s.Input.Len()+s.Output.Len()+len(s.Fingerprint)+128) +
		int64(len(s.Units))*int64(unsafe.Sizeof(SnapUnit{})) + int64(len(s.Spans))*int64(unsafe.Sizeof(SnapSpan{}))
}

const snapMagic = "ZSNP"
const snapVersion = 5

// Wire-form field sizes.
const (
	snapHeaderLen = len(snapMagic) + 4 + 4 + 4 // magic, version, ISA name and fingerprint lengths
	snapGeomLen   = 6 * 4                      // text geometry
	snapUnitLen   = 4 + 4 + 4                  // range, span count
	snapSpanLen   = 4 + 4 + 4
)

// MarshalSize is the exact length of the serialized snapshot.
func (s *Snapshot) MarshalSize() int {
	return snapHeaderLen + len(isa.Of(s.Arch).Name()) + len(s.Fingerprint) + snapGeomLen +
		2*sha256.Size + 4 + s.Input.Len() + 4 + s.Output.Len() + 4 +
		len(s.Units)*snapUnitLen + len(s.Spans)*snapSpanLen
}

// Marshal serializes the snapshot. The format is versioned and
// length-checked, and names the snapshot's ISA; Unmarshal rejects
// anything malformed. The buffer is sized exactly (MarshalSize), so
// one Marshal is one allocation.
func (s *Snapshot) Marshal() []byte {
	return s.encode(make([]byte, 0, s.MarshalSize()), nil)
}

// Stream writes the bytes Marshal returns to w without building the
// whole blob (the disk tier's snapshot spill), then flushes w; the
// small fields pass through a scratch buffer of a few KiB.
func (s *Snapshot) Stream(w *bufio.Writer) error {
	s.encode(make([]byte, 0, 4<<10), w)
	return w.Flush()
}

// encode is the one snapshot encoder: it appends the wire form to b
// and returns it. When w is non-nil it hands w what b holds before each
// image and whenever the next record would outgrow b's capacity, so b
// stays small; the images go to w as they are, and the returned slice
// is empty. Write errors stick in w and surface at its Flush.
func (s *Snapshot) encode(b []byte, w *bufio.Writer) []byte {
	le := binary.LittleEndian
	// room hands w what b holds when n more bytes would not fit.
	room := func(n int) {
		if w != nil && len(b)+n > cap(b) {
			w.Write(b)
			b = b[:0]
		}
	}
	image := func(img Image) {
		b = le.AppendUint32(b, uint32(img.Len()))
		for _, p := range img.pages {
			room(len(p))
			b = append(b, p...)
		}
	}
	name := isa.Of(s.Arch).Name()
	b = append(b, snapMagic...)
	b = le.AppendUint32(b, snapVersion)
	b = le.AppendUint32(b, uint32(len(name)))
	b = append(b, name...)
	b = le.AppendUint32(b, uint32(len(s.Fingerprint)))
	b = append(b, s.Fingerprint...)
	for _, v := range [6]uint32{s.InTextVA, s.InTextEnd, s.InTextOff, s.OutTextVA, s.OutTextOff, s.OutTextLen} {
		b = le.AppendUint32(b, v)
	}
	b = append(b, s.InDigest[:]...)
	b = append(b, s.OutDigest[:]...)
	image(s.Input)
	image(s.Output)
	b = le.AppendUint32(b, uint32(len(s.Units)))
	for _, u := range s.Units {
		room(snapUnitLen)
		b = le.AppendUint32(b, u.Range.Start)
		b = le.AppendUint32(b, u.Range.End)
		b = le.AppendUint32(b, u.Hi-u.Lo)
	}
	for _, sp := range s.Spans {
		room(snapSpanLen)
		b = le.AppendUint32(b, sp.Off)
		b = le.AppendUint32(b, sp.Len)
		b = le.AppendUint32(b, sp.Placed)
	}
	if w != nil {
		w.Write(b)
		b = b[:0]
	}
	return b
}

// UnmarshalSnapshot parses a Marshal-ed snapshot and verifies it
// (Verify), so a snapshot read back enters a store checked. Blobs of an
// older format version (v4 still carried a record per instruction),
// naming an unknown ISA, whose units are out of order or outside text,
// whose spans are empty, overlap, are out of order or run past their
// unit, or whose images fail their digests fail with ErrSnapshotStale.
func UnmarshalSnapshot(data []byte) (*Snapshot, error) {
	r := snapReader{b: data}
	if string(r.take(4)) != snapMagic {
		return nil, fmt.Errorf("%w: bad snapshot magic", ErrSnapshotStale)
	}
	if v := r.u32(); v != snapVersion {
		return nil, fmt.Errorf("%w: snapshot version %d", ErrSnapshotStale, v)
	}
	name := string(r.take(int(r.u32())))
	arch, err := isa.ByName(name)
	if err != nil || name == "" {
		return nil, fmt.Errorf("%w: snapshot ISA %q", ErrSnapshotStale, name)
	}
	s := &Snapshot{Arch: arch}
	s.Fingerprint = string(r.take(int(r.u32())))
	s.InTextVA = r.u32()
	s.InTextEnd = r.u32()
	s.InTextOff = r.u32()
	s.OutTextVA = r.u32()
	s.OutTextOff = r.u32()
	s.OutTextLen = r.u32()
	copy(s.InDigest[:], r.take(sha256.Size))
	copy(s.OutDigest[:], r.take(sha256.Size))
	s.Input = NewImage(r.take(int(r.u32())))
	s.Output = NewImage(r.take(int(r.u32())))
	nUnits := int(r.u32())
	if r.bad || nUnits > (len(r.b)-r.pos)/snapUnitLen {
		return nil, fmt.Errorf("%w: truncated snapshot", ErrSnapshotStale)
	}
	s.Units = make([]SnapUnit, nUnits)
	nSpans := 0
	for i := range s.Units {
		u := &s.Units[i]
		u.Range.Start = r.u32()
		u.Range.End = r.u32()
		n := int(r.u32())
		if n > (len(r.b)-r.pos)/snapSpanLen-nSpans {
			return nil, fmt.Errorf("%w: truncated snapshot", ErrSnapshotStale)
		}
		u.Lo, u.Hi = uint32(nSpans), uint32(nSpans+n)
		nSpans += n
	}
	s.Spans = make([]SnapSpan, nSpans)
	for i := range s.Spans {
		s.Spans[i] = SnapSpan{Off: r.u32(), Len: r.u32(), Placed: r.u32()}
	}
	if r.bad || len(r.b) != r.pos {
		return nil, fmt.Errorf("%w: malformed snapshot", ErrSnapshotStale)
	}
	if err := s.Verify(); err != nil {
		return nil, err
	}
	return s, nil
}

// snapReader is a bounds-tracking cursor over marshaled snapshot bytes.
type snapReader struct {
	b   []byte
	pos int
	bad bool
}

func (r *snapReader) take(n int) []byte {
	if r.bad || n < 0 || r.pos+n > len(r.b) {
		r.bad = true
		return nil
	}
	out := r.b[r.pos : r.pos+n]
	r.pos += n
	return out
}

func (r *snapReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

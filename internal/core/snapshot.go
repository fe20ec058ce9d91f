// Placement snapshots for incremental (delta) rewriting.
//
// A Snapshot captures everything needed to answer a rewrite of a
// *slightly edited* input without running the pipeline: the ancestor
// input and output images, per-unit content digests (ir.UnitDigest), and
// for every original instruction of every delta-eligible unit its placed
// address in the output plus editability flags. Apply admits an edited
// input when every changed byte belongs to a "freely editable"
// instruction — same opcode, condition and registers, only the immediate
// differs, and the immediate is inert for the conservative analyses
// (address-shaped movi/pushi immediates and stack-pointer adjustments
// under frame-sensitive transforms are excluded) — and then patches the
// new encodings directly into a copy of the ancestor output.
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
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"zipr/internal/binfmt"
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

// SnapInst flag bits.
const (
	snapPlaced   = 1 << 0 // instruction has a placed address in the output
	snapEditable = 1 << 1 // immediate edits are admissible
	snapImmSeed  = 1 << 2 // movi/pushi32: immediate feeds pin scan + weak disasm seeds
)

// SnapInst records one original instruction of a unit: its offset from
// the unit start and original encoded length in the input, its placed
// address in the rewritten output, and editability flags.
type SnapInst struct {
	Off    uint32
	Placed uint32
	Len    uint8
	Flags  uint8
}

// SnapUnit is one delta-eligible function unit: an original-address
// interval (ir.PartitionUnits), its canonical content digest, and its
// instruction records in address order, exactly tiling the interval.
type SnapUnit struct {
	Range  ir.Range
	Digest [sha256.Size]byte
	Insts  []SnapInst
}

// Snapshot is a placement snapshot of one completed rewrite. Build one
// with BuildSnapshot + Finish (zipr.Rewrite does this under
// Config.CaptureSnapshot); answer edited inputs with Apply.
type Snapshot struct {
	// Arch is the ISA the ancestor images are encoded in: Apply decodes
	// edits and Rebase re-digests units under it. nil means ZVM-32, as
	// for ir.Program.Arch.
	Arch isa.Arch
	// Fingerprint is the Config.Fingerprint the rewrite ran under; delta
	// is only valid between identical fingerprints.
	Fingerprint string
	// Input and Output are the ancestor images, with integrity digests
	// verified on every Apply so a rotted snapshot degrades instead of
	// patching garbage.
	Input, Output       []byte
	InDigest, OutDigest [sha256.Size]byte
	// Text geometry: virtual bounds of the input text segment (immediate
	// inertness checks) and the file offsets of the text payloads inside
	// the serialized input/output images.
	InTextVA, InTextEnd    uint32
	InTextOff              uint32
	OutTextVA              uint32
	OutTextOff, OutTextLen uint32
	// Units lists the delta-eligible units sorted by address.
	Units []SnapUnit
}

// DeltaInfo reports what an Apply did.
type DeltaInfo struct {
	UnitsChanged int   // units whose bytes differed
	InstsChanged int   // instructions re-encoded
	Changed      []int // indices into Units of the changed units
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

// segDataOffset returns the file offset of seg's payload inside
// b.Marshal()'s output, mirroring the marshal layout (20-byte header,
// then per-segment 12-byte headers + payload). Returns -1 when seg is
// not one of b's segments.
func segDataOffset(b *binfmt.Binary, seg *binfmt.Segment) int {
	off := 4 + 2 + 1 + 1 + 4 + 4*2 // magic, version, type, pad, entry, counts
	for i := range b.Segments {
		s := &b.Segments[i]
		off += 12
		if s == seg {
			return off
		}
		off += len(s.Data)
	}
	return -1
}

// BuildSnapshot constructs the structural part of a snapshot from a
// completed reassembly: unit partition, digests, per-instruction placed
// addresses and flags. The serialized input/output images are attached
// afterwards with Finish. frameSensitive marks configurations whose
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
	inOff := segDataOffset(p.Bin, text)
	outOff := segDataOffset(res.Binary, outText)
	if inOff < 0 || outOff < 0 {
		return nil, fmt.Errorf("core: snapshot: segment offset unresolved")
	}
	s.InTextOff, s.OutTextOff = uint32(inOff), uint32(outOff)

	overlapsFixed := func(u ir.Range) bool {
		for _, f := range p.Fixed {
			if u.Overlaps(f) {
				return true
			}
		}
		return false
	}

units:
	for _, u := range ir.PartitionUnits(p) {
		// Units overlapping fixed ranges (embedded data, jump tables,
		// ambiguous decodes) or with imperfect decode tiling are simply
		// not recorded: edits there fall outside every unit and Apply
		// rejects them, degrading to a full rewrite.
		if overlapsFixed(u) {
			continue
		}
		digest, err := ir.UnitDigest(arch, text.Data, text.VAddr, u)
		if err != nil {
			continue
		}
		su := SnapUnit{Range: u, Digest: digest}
		for addr := u.Start; addr < u.End; {
			orig, err := arch.Decode(text.Data[addr-text.VAddr:], addr)
			if err != nil {
				continue units
			}
			n := p.ByAddr[addr]
			if n == nil || n.Deleted || n.OrigAddr != addr {
				// Hole in the relocatable decode (weak-only bytes, an
				// instruction a transform deleted): the unit cannot
				// vouch for every byte it spans.
				continue units
			}
			ln := uint32(arch.InstLen(orig))
			rec := SnapInst{Off: addr - u.Start, Len: uint8(ln)}
			switch orig.Op {
			case isa.OpMovI, isa.OpPushI32:
				rec.Flags |= snapImmSeed
			}
			placed, ok := res.Layout.AddrOf(n)
			if ok {
				rec.Flags |= snapPlaced
				rec.Placed = placed
			}
			spAdd := (orig.Op == isa.OpAddI || orig.Op == isa.OpAddI8) && orig.Rd == isa.SP
			if ok && n.Target == nil && n.AbsTarget == 0 && n.Inst == orig &&
				opEditable(orig.Op) && !(frameSensitive && spAdd) &&
				placed >= s.OutTextVA && placed+ln <= s.OutTextVA+s.OutTextLen {
				rec.Flags |= snapEditable
			}
			su.Insts = append(su.Insts, rec)
			addr += ln
		}
		s.Units = append(s.Units, su)
	}
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
	s.Input = append([]byte(nil), input...)
	s.Output = append([]byte(nil), output...)
	s.InDigest = sha256.Sum256(s.Input)
	s.OutDigest = sha256.Sum256(s.Output)
	// The editable-instruction contract says output bytes at each placed
	// address are the instruction's input encoding; spot-verify the whole
	// invariant once at export so a violation disables delta here rather
	// than surfacing as an Apply-time stale error on every request.
	for ui := range s.Units {
		u := &s.Units[ui]
		for _, rec := range u.Insts {
			if rec.Flags&snapEditable == 0 {
				continue
			}
			in := s.inSlice(u.Range.Start+rec.Off, uint32(rec.Len))
			out := s.outSlice(rec.Placed, uint32(rec.Len))
			if in == nil || out == nil || !bytes.Equal(in, out) {
				return fmt.Errorf("core: snapshot: placed bytes of %#x diverge from input encoding",
					u.Range.Start+rec.Off)
			}
		}
	}
	return nil
}

// inSlice returns the input-image bytes of [va, va+n) in input text.
func (s *Snapshot) inSlice(va, n uint32) []byte {
	if va < s.InTextVA || va+n > s.InTextEnd {
		return nil
	}
	off := s.InTextOff + (va - s.InTextVA)
	if uint32(len(s.Input)) < off+n {
		return nil
	}
	return s.Input[off : off+n]
}

// outSlice returns the output-image bytes of [va, va+n) in output text.
func (s *Snapshot) outSlice(va, n uint32) []byte {
	if va < s.OutTextVA || va+n > s.OutTextVA+s.OutTextLen {
		return nil
	}
	off := s.OutTextOff + (va - s.OutTextVA)
	if uint32(len(s.Output)) < off+n {
		return nil
	}
	return s.Output[off : off+n]
}

// newInSlice is inSlice against a candidate input image (same geometry).
func (s *Snapshot) newInSlice(input []byte, va, n uint32) []byte {
	if va < s.InTextVA || va+n > s.InTextEnd {
		return nil
	}
	off := s.InTextOff + (va - s.InTextVA)
	if uint32(len(input)) < off+n {
		return nil
	}
	return input[off : off+n]
}

// Verify checks the snapshot's internal integrity: image digests intact
// and geometry coherent. Returns ErrSnapshotStale on any mismatch.
func (s *Snapshot) Verify() error {
	if len(s.Input) == 0 || len(s.Output) == 0 {
		return fmt.Errorf("%w: images missing", ErrSnapshotStale)
	}
	if sha256.Sum256(s.Input) != s.InDigest || sha256.Sum256(s.Output) != s.OutDigest {
		return fmt.Errorf("%w: image digest mismatch", ErrSnapshotStale)
	}
	inLen := s.InTextEnd - s.InTextVA
	if s.InTextVA > s.InTextEnd ||
		uint32(len(s.Input)) < s.InTextOff+inLen ||
		uint32(len(s.Output)) < s.OutTextOff+s.OutTextLen {
		return fmt.Errorf("%w: text geometry out of bounds", ErrSnapshotStale)
	}
	return nil
}

// Apply answers a rewrite of input using the snapshot: if every byte
// that differs from the ancestor input belongs to a freely editable
// instruction of a recorded unit, it returns the ancestor output with
// the edited instructions re-encoded at their placed addresses — byte
// for byte what a from-scratch rewrite of input produces. Otherwise it
// returns ErrDeltaInapplicable (unsupported edit; run the pipeline) or
// ErrSnapshotStale (snapshot failed verification; evict it).
func (s *Snapshot) Apply(input []byte) ([]byte, *DeltaInfo, error) {
	if err := s.Verify(); err != nil {
		return nil, nil, err
	}
	if len(input) != len(s.Input) {
		return nil, nil, fmt.Errorf("%w: input length %d != ancestor %d",
			ErrDeltaInapplicable, len(input), len(s.Input))
	}

	// Every byte outside the recorded units must be identical: walk the
	// gaps between unit file-ranges (units are address-sorted).
	pos := 0
	for i := range s.Units {
		u := &s.Units[i]
		lo := int(s.InTextOff + (u.Range.Start - s.InTextVA))
		hi := int(s.InTextOff + (u.Range.End - s.InTextVA))
		if !bytes.Equal(input[pos:lo], s.Input[pos:lo]) {
			return nil, nil, fmt.Errorf("%w: edit outside function units", ErrDeltaInapplicable)
		}
		pos = hi
	}
	if !bytes.Equal(input[pos:], s.Input[pos:]) {
		return nil, nil, fmt.Errorf("%w: edit outside function units", ErrDeltaInapplicable)
	}

	arch := isa.Of(s.Arch)
	out := append([]byte(nil), s.Output...)
	info := &DeltaInfo{}
	for ui := range s.Units {
		u := &s.Units[ui]
		oldU := s.inSlice(u.Range.Start, u.Range.Len())
		newU := s.newInSlice(input, u.Range.Start, u.Range.Len())
		if oldU == nil || newU == nil {
			return nil, nil, fmt.Errorf("%w: unit %+v out of bounds", ErrSnapshotStale, u.Range)
		}
		if bytes.Equal(oldU, newU) {
			continue
		}
		// Digest-set diff: the unit's content digest moved; admit the
		// edit only instruction by instruction.
		info.UnitsChanged++
		info.Changed = append(info.Changed, ui)
		covered := uint32(0)
		for _, rec := range u.Insts {
			if rec.Off != covered {
				return nil, nil, fmt.Errorf("%w: unit tiling gap at +%#x", ErrSnapshotStale, covered)
			}
			covered += uint32(rec.Len)
			oldB := oldU[rec.Off : rec.Off+uint32(rec.Len)]
			newB := newU[rec.Off : rec.Off+uint32(rec.Len)]
			if bytes.Equal(oldB, newB) {
				continue
			}
			addr := u.Range.Start + rec.Off
			if rec.Flags&snapEditable == 0 {
				return nil, nil, fmt.Errorf("%w: edited instruction at %#x is not freely editable",
					ErrDeltaInapplicable, addr)
			}
			oldIn, err1 := arch.Decode(oldB, addr)
			newIn, err2 := arch.Decode(newB, addr)
			if err1 != nil || err2 != nil {
				return nil, nil, fmt.Errorf("%w: edited bytes at %#x do not decode",
					ErrDeltaInapplicable, addr)
			}
			if newIn.Op != oldIn.Op || newIn.Cc != oldIn.Cc || newIn.Rd != oldIn.Rd ||
				newIn.Rs != oldIn.Rs || arch.InstLen(newIn) != int(rec.Len) {
				return nil, nil, fmt.Errorf("%w: edit at %#x changes more than the immediate",
					ErrDeltaInapplicable, addr)
			}
			if rec.Flags&snapImmSeed != 0 {
				// movi/pushi immediates feed the pin scan and the weak
				// disassembler seeds; both values must be provably inert
				// (outside text) or the analyses could diverge.
				for _, imm := range [2]uint32{uint32(oldIn.Imm), uint32(newIn.Imm)} {
					if imm >= s.InTextVA && imm < s.InTextEnd {
						return nil, nil, fmt.Errorf("%w: immediate %#x at %#x is address-shaped",
							ErrDeltaInapplicable, imm, addr)
					}
				}
			}
			dst := s.outSliceOf(out, rec.Placed, uint32(rec.Len))
			if dst == nil {
				return nil, nil, fmt.Errorf("%w: placed range %#x out of output text", ErrSnapshotStale, rec.Placed)
			}
			if !bytes.Equal(dst, oldB) {
				// The output must hold the old encoding exactly where the
				// snapshot says; anything else means the snapshot and
				// output disagree — never patch on top of that.
				return nil, nil, fmt.Errorf("%w: output bytes at %#x diverge from recorded encoding",
					ErrSnapshotStale, rec.Placed)
			}
			copy(dst, newB)
			info.InstsChanged++
		}
		if covered != u.Range.Len() {
			return nil, nil, fmt.Errorf("%w: unit tiling short at %+v", ErrSnapshotStale, u.Range)
		}
	}
	return out, info, nil
}

// outSliceOf is outSlice against a caller-owned output copy.
func (s *Snapshot) outSliceOf(out []byte, va, n uint32) []byte {
	if va < s.OutTextVA || va+n > s.OutTextVA+s.OutTextLen {
		return nil
	}
	off := s.OutTextOff + (va - s.OutTextVA)
	if uint32(len(out)) < off+n {
		return nil
	}
	return out[off : off+n]
}

// Rebase derives the snapshot of a delta-answered rewrite: same
// placement and flags (the layout is identical by construction), new
// ancestor images, unit digests refreshed for the changed units. The
// per-instruction records are shared with the ancestor snapshot — they
// are immutable after build.
func (s *Snapshot) Rebase(input, output []byte, info *DeltaInfo) (*Snapshot, error) {
	ns := &Snapshot{
		Arch:        s.Arch,
		Fingerprint: s.Fingerprint,
		Input:       append([]byte(nil), input...),
		Output:      append([]byte(nil), output...),
		InTextVA:    s.InTextVA,
		InTextEnd:   s.InTextEnd,
		InTextOff:   s.InTextOff,
		OutTextVA:   s.OutTextVA,
		OutTextOff:  s.OutTextOff,
		OutTextLen:  s.OutTextLen,
		Units:       append([]SnapUnit(nil), s.Units...),
	}
	ns.InDigest = sha256.Sum256(ns.Input)
	ns.OutDigest = sha256.Sum256(ns.Output)
	text := ns.Input[ns.InTextOff : ns.InTextOff+(ns.InTextEnd-ns.InTextVA)]
	for _, ui := range info.Changed {
		d, err := ir.UnitDigest(isa.Of(ns.Arch), text, ns.InTextVA, ns.Units[ui].Range)
		if err != nil {
			return nil, fmt.Errorf("core: rebase digest: %w", err)
		}
		ns.Units[ui].Digest = d
	}
	return ns, nil
}

// SizeBytes estimates the snapshot's resident size for byte-budget
// accounting: the two images plus the per-instruction records.
func (s *Snapshot) SizeBytes() int64 {
	n := int64(len(s.Input) + len(s.Output) + len(s.Fingerprint) + 128)
	for i := range s.Units {
		n += 48 + int64(len(s.Units[i].Insts))*10
	}
	return n
}

const snapMagic = "ZSNP"
const snapVersion = 3

// Marshal serializes the snapshot (for the disk tier's snapshot spill).
// The format is versioned and length-checked, and names the snapshot's
// ISA; Unmarshal rejects anything malformed. The encoder sizes its
// buffer exactly and appends every field, so one Marshal is one
// allocation.
func (s *Snapshot) Marshal() []byte {
	const (
		header = len(snapMagic) + 4 + 4 + 4 // magic, version, ISA name and fingerprint lengths
		geom   = 6 * 4                      // text geometry
		unit   = 4 + 4 + sha256.Size + 4
		inst   = 4 + 4 + 1 + 1
	)
	name := isa.Of(s.Arch).Name()
	size := header + len(name) + len(s.Fingerprint) + geom + 2*sha256.Size +
		4 + len(s.Input) + 4 + len(s.Output) + 4
	for i := range s.Units {
		size += unit + len(s.Units[i].Insts)*inst
	}
	le := binary.LittleEndian
	b := make([]byte, 0, size)
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
	b = le.AppendUint32(b, uint32(len(s.Input)))
	b = append(b, s.Input...)
	b = le.AppendUint32(b, uint32(len(s.Output)))
	b = append(b, s.Output...)
	b = le.AppendUint32(b, uint32(len(s.Units)))
	for i := range s.Units {
		u := &s.Units[i]
		b = le.AppendUint32(b, u.Range.Start)
		b = le.AppendUint32(b, u.Range.End)
		b = append(b, u.Digest[:]...)
		b = le.AppendUint32(b, uint32(len(u.Insts)))
		for _, rec := range u.Insts {
			b = le.AppendUint32(b, rec.Off)
			b = le.AppendUint32(b, rec.Placed)
			b = append(b, rec.Len, rec.Flags)
		}
	}
	return b
}

// UnmarshalSnapshot parses a Marshal-ed snapshot. Blobs of an older
// format version or naming an unknown ISA fail with ErrSnapshotStale.
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
	s.Input = append([]byte(nil), r.take(int(r.u32()))...)
	s.Output = append([]byte(nil), r.take(int(r.u32()))...)
	nUnits := int(r.u32())
	if r.bad || nUnits > 1<<22 {
		return nil, fmt.Errorf("%w: truncated snapshot", ErrSnapshotStale)
	}
	for i := 0; i < nUnits; i++ {
		var u SnapUnit
		u.Range.Start = r.u32()
		u.Range.End = r.u32()
		copy(u.Digest[:], r.take(sha256.Size))
		nInsts := int(r.u32())
		if r.bad || nInsts > 1<<26 {
			return nil, fmt.Errorf("%w: truncated snapshot", ErrSnapshotStale)
		}
		u.Insts = make([]SnapInst, 0, nInsts)
		for j := 0; j < nInsts; j++ {
			var rec SnapInst
			rec.Off = r.u32()
			rec.Placed = r.u32()
			one := r.take(2)
			if r.bad {
				return nil, fmt.Errorf("%w: truncated snapshot", ErrSnapshotStale)
			}
			rec.Len, rec.Flags = one[0], one[1]
			u.Insts = append(u.Insts, rec)
		}
		s.Units = append(s.Units, u)
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

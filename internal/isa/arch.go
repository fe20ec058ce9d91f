package isa

import "fmt"

// Arch is the instruction-set architecture: the only codec in the
// repository, and the ISA-specific facts the rewriting pipeline depends
// on. It owns encoding, decoding, instruction lengths and static targets
// (widths, alignment, decode errors), the branch-reach model, and the
// pin/reference regime reassembly must use (x86-style chains and 0x68
// push-sleds on ZVM-32; fixed-width range islands/veneers on ZVM-64).
// Inst itself is ISA-neutral, so every layer that turns bytes into
// instructions or back — disassembly, the IR's units, snapshots,
// reassembly, the VM — holds an Arch value and cannot decode one ISA's
// bytes with the other's codec by accident. Everything above the codec
// (the transforms, the placers) talks only to this interface.
type Arch interface {
	// Name is the canonical ISA name ("zvm32", "zvm64"); it keys the
	// registry, the config fingerprint and the test matrices.
	Name() string
	// MaxLen is the longest encoding in bytes.
	MaxLen() int
	// Align is the instruction-address alignment (1 = unaligned).
	Align() uint32
	// InstLen returns the encoded length of in under this ISA, or 0
	// when in cannot be encoded (invalid op, or an op the ISA lacks).
	InstLen(in Inst) int
	// AppendEncode appends the encoding of in to dst.
	AppendEncode(dst []byte, in Inst) ([]byte, error)
	// Encode returns the encoding of in.
	Encode(in Inst) ([]byte, error)
	// Decode decodes the instruction at the start of b, which sits at
	// address addr (fixed-width ISAs reject misaligned addr).
	Decode(b []byte, addr uint32) (Inst, error)
	// TargetAddr returns the absolute target of a direct branch or
	// PC-relative data reference decoded at addr (the displacement is
	// relative to the next instruction); false for instructions without
	// a static target.
	TargetAddr(in Inst, addr uint32) (uint32, bool)

	// RefLen is the size in bytes of an unconstrained reference jump —
	// what reassembly plants at a pinned address when the gap allows.
	RefLen() int
	// ChainRefLen is the size of a constrained short reference (0 when
	// the ISA has no short branch form and therefore no chaining).
	ChainRefLen() int
	// SledsSupported reports whether the 0x68 push-sled construction is
	// byte-compatible with this ISA's encoding.
	SledsSupported() bool
	// BranchReach is the maximum forward/backward displacement of a
	// direct branch in bytes (0 = unlimited reach).
	BranchReach() uint32
	// BranchDispOK reports whether a direct branch can encode disp.
	BranchDispOK(disp int64) bool
	// VeneerLen is the byte size of a veneer (range-extension island);
	// 0 when the ISA never needs one.
	VeneerLen() int
	// VeneerBytes returns the encoded veneer that forwards control to
	// the absolute address dest from anywhere.
	VeneerBytes(dest uint32) []byte
}

// zvm32Arch implements Arch for the variable-width ISA (codec.go). Its
// methods take pointer receivers so an interface call reaches the
// method itself, not a generated wrapper around it: Decode runs at every
// text offset under inference, where that second call costs more than
// the decode.
type zvm32Arch struct{}

func (*zvm32Arch) Name() string                   { return "zvm32" }
func (*zvm32Arch) MaxLen() int                    { return MaxLen }
func (*zvm32Arch) Align() uint32                  { return 1 }
func (*zvm32Arch) RefLen() int                    { return 5 }
func (*zvm32Arch) ChainRefLen() int               { return 2 }
func (*zvm32Arch) SledsSupported() bool           { return true }
func (*zvm32Arch) BranchReach() uint32            { return 0 }
func (*zvm32Arch) BranchDispOK(disp int64) bool   { return disp >= -1<<31 && disp <= 1<<31-1 }
func (*zvm32Arch) VeneerLen() int                 { return 0 }
func (*zvm32Arch) VeneerBytes(dest uint32) []byte { return nil }

// ZVM32 is the default, variable-width ISA.
var ZVM32 Arch = &zvm32Arch{}

// ZVM64 is the fixed-width 4-byte ISA with ±1 MiB branch reach.
var ZVM64 Arch = &zvm64Arch{}

// DefaultArch is the ISA assumed wherever none is configured; every
// pre-abstraction digest and golden cell was produced under it.
func DefaultArch() Arch { return ZVM32 }

// Of returns a if non-nil and the default otherwise — the nil-tolerant
// accessor every pipeline layer uses so IR built before the
// architecture abstraction keeps working unchanged.
func Of(a Arch) Arch {
	if a == nil {
		return ZVM32
	}
	return a
}

// IsDefault reports whether a is (or defaults to) the default ISA.
func IsDefault(a Arch) bool { return a == nil || a.Name() == ZVM32.Name() }

// ByName resolves an ISA name; the empty string means the default.
func ByName(name string) (Arch, error) {
	switch name {
	case "", "zvm32":
		return ZVM32, nil
	case "zvm64":
		return ZVM64, nil
	}
	return nil, fmt.Errorf("isa: unknown ISA %q (want zvm32 or zvm64)", name)
}

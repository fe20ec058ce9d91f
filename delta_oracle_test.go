package zipr

// The flat-image Apply oracle: Snapshot.Apply as it was when snapshots
// held their images as flat byte slices, kept here to check the paged
// Apply against. Both must return the same bytes, the same DeltaInfo
// and the same error, on the corpus edits of both ISAs and on
// single-byte flips that reach each refusal.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"zipr/internal/isa"
)

// flatApply is Snapshot.Apply over flat copies of the snapshot's
// images: it copies the whole ancestor output and patches the copy.
func flatApply(s *Snapshot, input []byte) ([]byte, *DeltaInfo, error) {
	sIn, sOut := s.Input.Bytes(), s.Output.Bytes()
	if len(sIn) == 0 || len(sOut) == 0 {
		return nil, nil, fmt.Errorf("%w: images missing", ErrSnapshotStale)
	}
	if s.InTextVA > s.InTextEnd ||
		uint64(s.InTextOff)+uint64(s.InTextEnd-s.InTextVA) > uint64(len(sIn)) ||
		uint64(s.OutTextOff)+uint64(s.OutTextLen) > uint64(len(sOut)) {
		return nil, nil, fmt.Errorf("%w: text geometry out of bounds", ErrSnapshotStale)
	}
	if len(input) != len(sIn) {
		return nil, nil, fmt.Errorf("%w: input length %d != ancestor %d",
			ErrDeltaInapplicable, len(input), len(sIn))
	}
	pos := 0
	for i := range s.Units {
		u := &s.Units[i]
		lo := int(s.InTextOff + (u.Range.Start - s.InTextVA))
		hi := int(s.InTextOff + (u.Range.End - s.InTextVA))
		if !bytes.Equal(input[pos:lo], sIn[pos:lo]) {
			return nil, nil, fmt.Errorf("%w: edit outside function units", ErrDeltaInapplicable)
		}
		pos = hi
	}
	if !bytes.Equal(input[pos:], sIn[pos:]) {
		return nil, nil, fmt.Errorf("%w: edit outside function units", ErrDeltaInapplicable)
	}
	inText := func(img []byte, va, n uint32) []byte {
		return flatTextSlice(img, s.InTextOff, s.InTextVA, s.InTextEnd-s.InTextVA, va, n)
	}
	arch := isa.Of(s.Arch)
	out := append([]byte(nil), sOut...)
	info := &DeltaInfo{}
	for ui := range s.Units {
		u := &s.Units[ui]
		oldU := inText(sIn, u.Range.Start, u.Range.Len())
		newU := inText(input, u.Range.Start, u.Range.Len())
		if oldU == nil || newU == nil {
			return nil, nil, fmt.Errorf("%w: unit %+v out of bounds", ErrSnapshotStale, u.Range)
		}
		if bytes.Equal(oldU, newU) {
			continue
		}
		info.UnitsChanged++
		spans := s.Spans[u.Lo:u.Hi]
		pos := uint32(0)
		for _, sp := range spans {
			if !bytes.Equal(oldU[pos:sp.Off], newU[pos:sp.Off]) {
				return nil, nil, fmt.Errorf("%w: edit in %+v outside its editable instructions",
					ErrDeltaInapplicable, u.Range)
			}
			pos = sp.Off + sp.Len
		}
		if !bytes.Equal(oldU[pos:], newU[pos:]) {
			return nil, nil, fmt.Errorf("%w: edit in %+v outside its editable instructions",
				ErrDeltaInapplicable, u.Range)
		}
		for _, sp := range spans {
			n, err := flatPatchSpan(s, arch, out, u.Range.Start+sp.Off, sp.Placed,
				oldU[sp.Off:sp.Off+sp.Len], newU[sp.Off:sp.Off+sp.Len])
			if err != nil {
				return nil, nil, err
			}
			info.InstsChanged += n
		}
	}
	return out, info, nil
}

// flatPatchSpan is the flat oracle's patchSpan.
func flatPatchSpan(s *Snapshot, arch isa.Arch, out []byte, addr, placed uint32, was, now []byte) (int, error) {
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
				for _, imm := range [2]uint32{uint32(oldIn.Imm), uint32(newIn.Imm)} {
					if imm >= s.InTextVA && imm < s.InTextEnd {
						return 0, fmt.Errorf("%w: immediate %#x at %#x is address-shaped",
							ErrDeltaInapplicable, imm, addr)
					}
				}
			}
			dst := flatTextSlice(out, s.OutTextOff, s.OutTextVA, s.OutTextLen, placed, uint32(ln))
			if dst == nil {
				return 0, fmt.Errorf("%w: placed range %#x out of output text", ErrSnapshotStale, placed)
			}
			if !bytes.Equal(dst, oldB) {
				return 0, fmt.Errorf("%w: output bytes at %#x diverge from recorded encoding",
					ErrSnapshotStale, placed)
			}
			copy(dst, newB)
			patched++
		}
		off += ln
		addr += uint32(ln)
		placed += uint32(ln)
	}
	return patched, nil
}

// flatTextSlice returns the bytes of [va, va+n) of the text segment at
// file offset off, virtual address base and length size in img, or nil
// when the range is not inside that segment or the segment not inside
// img.
func flatTextSlice(img []byte, off, base, size, va, n uint32) []byte {
	if va < base || uint64(va-base)+uint64(n) > uint64(size) {
		return nil
	}
	lo := uint64(off) + uint64(va-base)
	if lo+uint64(n) > uint64(len(img)) {
		return nil
	}
	return img[lo : lo+uint64(n)]
}

// checkFlatOracle requires the paged Apply of snap and the flat oracle
// to agree on edited, on the ancestor input base itself, on a shortened
// input and on single-byte flips spread over the second half of the
// image, which reach outside every unit, outside the editable
// instructions, and into them. TestDeltaIdentityCorpus and
// TestSnapshotIdentityZVM64 run it on every snapshot they capture.
func checkFlatOracle(t *testing.T, snap *Snapshot, base, edited []byte) {
	t.Helper()
	inputs := [][]byte{edited, base, base[:len(base)-1]}
	for k := 0; k < 8; k++ {
		flip := bytes.Clone(edited)
		flip[len(flip)/2+(k*7919+len(flip)*31)%(len(flip)/2)] ^= 0x5A
		inputs = append(inputs, flip)
	}
	for j, in := range inputs {
		got, gotInfo, gotErr := snap.Apply(in)
		want, wantInfo, wantErr := flatApply(snap, in)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("input %d: Apply error %v, oracle %v", j, gotErr, wantErr)
		}
		if gotErr == nil && (!bytes.Equal(got.Bytes(), want) || !reflect.DeepEqual(gotInfo, wantInfo)) {
			t.Fatalf("input %d: Apply output or %+v differs from the oracle's (%+v)", j, gotInfo, wantInfo)
		}
	}
}

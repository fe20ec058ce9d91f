package zipr

// Differential check of snapshot capture: the editable spans that
// core.BuildSnapshot records against the per-instruction records that
// format v4 snapshots were captured with.

import (
	"slices"
	"testing"

	"zipr/internal/binfmt"
	"zipr/internal/cfg"
	"zipr/internal/core"
	"zipr/internal/disasm"
	"zipr/internal/ir"
	"zipr/internal/isa"
	"zipr/internal/layout"
	"zipr/internal/synth"
	"zipr/internal/transform"
)

// snapRecord is one original instruction of a unit as the v4 capture
// recorded it: offset from the unit start, encoded length, placed
// address, and whether its immediate is freely editable.
type snapRecord struct {
	Off, Len, Placed uint32
	Editable         bool
}

// recordUnit is a v4 unit: its range and records tiling it.
type recordUnit struct {
	Range ir.Range
	Insts []snapRecord
}

// buildRecordsOracle is the v4 capture: core.BuildSnapshot's tiling walk
// and editability rules, one record per instruction.
func buildRecordsOracle(p *ir.Program, res *core.Result, frameSensitive bool) []recordUnit {
	text, outText := p.Bin.Text(), res.Binary.Text()
	outEnd := outText.VAddr + uint32(len(outText.Data))
	arch := p.ISA()
	var units []recordUnit
units:
	for _, u := range ir.PartitionUnits(p) {
		if slices.ContainsFunc(p.Fixed, u.Overlaps) || u.Start >= u.End || u.Start < text.VAddr || u.End > text.End() {
			continue
		}
		ru := recordUnit{Range: u}
		for addr := u.Start; addr < u.End; {
			orig, err := arch.Decode(text.Data[addr-text.VAddr:], addr)
			if err != nil {
				continue units
			}
			n := p.At(addr)
			if n == nil || n.Deleted || n.OrigAddr != addr {
				continue units
			}
			ln := uint32(arch.InstLen(orig))
			if addr+ln > u.End {
				continue units
			}
			rec := snapRecord{Off: addr - u.Start, Len: ln}
			placed, ok := res.Layout.AddrOf(n)
			rec.Placed = placed
			opEditable := !orig.IsBranch() && orig.Op != isa.OpLea && orig.Op != isa.OpLoadPC
			spAdd := (orig.Op == isa.OpAddI || orig.Op == isa.OpAddI8) && orig.Rd == isa.SP
			rec.Editable = ok && n.Target == nil && n.AbsTarget == 0 && n.Inst == orig &&
				opEditable && !(frameSensitive && spAdd) &&
				placed >= outText.VAddr && placed+ln <= outEnd
			ru.Insts = append(ru.Insts, rec)
			addr += ln
		}
		units = append(units, ru)
	}
	return units
}

// mergeRecords returns the maximal merges of recs' editable records
// whose input and placed addresses are both contiguous.
func mergeRecords(recs []snapRecord) []core.SnapSpan {
	var spans []core.SnapSpan
	for _, r := range recs {
		if !r.Editable {
			continue
		}
		if last := len(spans) - 1; last >= 0 && spans[last].Off+spans[last].Len == r.Off &&
			spans[last].Placed+spans[last].Len == r.Placed {
			spans[last].Len += r.Len
		} else {
			spans = append(spans, core.SnapSpan{Off: r.Off, Len: r.Len, Placed: r.Placed})
		}
	}
	return spans
}

// stagedPipeline runs Rewrite's three phases on img under c (two-way
// arbitration, c's ISA, transforms and layout) and returns the
// transformed program and its reassembly, which Rewrite keeps to itself.
func stagedPipeline(img []byte, c Config) (*ir.Program, *core.Result, error) {
	bin, err := binfmt.Unmarshal(img)
	if err != nil {
		return nil, nil, err
	}
	arch, err := isa.ByName(c.ISA)
	if err != nil {
		return nil, nil, err
	}
	agg, err := disasm.DisassembleOpts(bin, disasm.Options{Arch: arch})
	if err != nil {
		return nil, nil, err
	}
	prog, err := cfg.BuildOpts(bin, agg, cfg.Options{})
	if err != nil {
		return nil, nil, err
	}
	if err := transform.ApplyTraced(prog, nil, c.Transforms...); err != nil {
		return nil, nil, err
	}
	var placer core.Placer = layout.Optimized{}
	if c.Layout == LayoutDiversity {
		placer = layout.NewDiversity(c.Seed)
	}
	res, err := core.Reassemble(prog, core.Options{Placer: placer})
	return prog, res, err
}

// TestSnapshotSpansMatchRecordOracle checks, over the corpus on both
// ISAs and every delta configuration, that capture records the same
// units as the v4 record builder and that each unit's spans are exactly
// the maximal merges of the oracle's editable records whose input and
// placed addresses are both contiguous. Cells whose pipeline fails are
// skipped (ZVM-64 cb11 under cfi-optimized overflows the CFI target
// table).
func TestSnapshotSpansMatchRecordOracle(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 4
	}
	cells, spans, skipped := 0, 0, 0
	for _, arch := range []isa.Arch{isa.ZVM32, isa.ZVM64} {
		for i := 0; i < synth.CorpusSize; i += stride {
			seed, prof := synth.CBProfile(i)
			img := mustImageArch(t, synth.GenerateArch(seed, prof, arch), arch)
			for _, c := range deltaConfigs() {
				c.ISA = arch.Name()
				name := arch.Name() + "/" + prof.Name + "/" + deltaConfigName(c)
				prog, res, err := stagedPipeline(img, c)
				if err != nil {
					t.Logf("%s: pipeline fails, cell skipped: %v", name, err)
					skipped++
					continue
				}
				_, frameSensitive := snapshotSafeTransforms(c.Transforms)
				snap, err := core.BuildSnapshot(prog, res, frameSensitive, "")
				if err != nil {
					t.Fatalf("%s: BuildSnapshot: %v", name, err)
				}
				oracle := buildRecordsOracle(prog, res, frameSensitive)
				if len(snap.Units) != len(oracle) {
					t.Fatalf("%s: %d units captured, the record oracle has %d", name, len(snap.Units), len(oracle))
				}
				for ui, u := range snap.Units {
					want := oracle[ui]
					got := snap.Spans[u.Lo:u.Hi]
					if u.Range != want.Range || !slices.Equal(got, mergeRecords(want.Insts)) {
						t.Fatalf("%s: unit %+v holds spans %v, the merged records of unit %+v are %v",
							name, u.Range, got, want.Range, mergeRecords(want.Insts))
					}
				}
				cells++
				spans += len(snap.Spans)
			}
		}
	}
	if cells == 0 || spans == 0 || skipped > 1 {
		t.Fatalf("%d cells with %d spans compared, %d skipped; want spans compared and at most the one known cell skipped",
			cells, spans, skipped)
	}
}

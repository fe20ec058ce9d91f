package zipr

// Determinism tests for the parallel pipeline: every fan-out level —
// concurrent disassembly and the corpus worker pool — must
// produce output byte-identical to the serial path, for
// every layout strategy (including the seeded diversity layout, whose
// placement is random but derived only from Config.Seed).

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"zipr/internal/binfmt"
	"zipr/internal/cgcsim"
	"zipr/internal/disasm"
	"zipr/internal/isa"
	"zipr/internal/synth"
)

// dumpAgg flattens an Aggregated view into comparable values.
func dumpAgg(agg disasm.Aggregated) (insts, ambig []uint64) {
	pack := func(a uint32, in isa.Inst) uint64 {
		return uint64(a)<<32 | uint64(in.Op)<<24 | uint64(in.Rd)<<16 | uint64(in.Rs)<<8 | uint64(in.Cc)
	}
	agg.Insts.All(func(a uint32, in isa.Inst) bool {
		insts = append(insts, pack(a, in))
		return true
	})
	agg.AmbigInsts.All(func(a uint32, in isa.Inst) bool {
		ambig = append(ambig, pack(a, in))
		return true
	})
	return insts, ambig
}

// TestDisassembleSerialMatchesParallel checks that the concurrent
// disassembly produces exactly the serial result on a spread of
// binaries (plain, ambiguous-heavy, pathological) and on the libc-scale
// library, whose text spans thousands of candidate-set words.
func TestDisassembleSerialMatchesParallel(t *testing.T) {
	for _, idx := range []int{0, 5, 10, synth.PathologicalCB} {
		seed, profile := synth.CBProfile(idx)
		bin, err := synth.Build(seed, profile)
		if err != nil {
			t.Fatal(err)
		}
		checkSerialMatchesParallel(t, idx, bin, nil)
	}
	lib, err := synth.Build(11, synth.LibcProfile(1.0))
	if err != nil {
		t.Fatal(err)
	}
	checkSerialMatchesParallel(t, -1, lib, nil)
}

// checkSerialMatchesParallel disassembles bin under arch serially and in
// three concurrent-mode runs at once, under both arbitration policies,
// and fails unless every concurrent Aggregated view agrees with the
// serial one in every output: instructions, ambiguous set, fixed
// ranges, byte classes, warnings and arbitration counts. idx names the
// binary in failures (-1: the library, -2: the veneer program).
func checkSerialMatchesParallel(t *testing.T, idx int, bin *binfmt.Binary, arch isa.Arch) {
	t.Helper()
	for _, arb := range []disasm.Arbitration{disasm.ArbTwoWay, disasm.ArbWeighted} {
		serial, err := disasm.DisassembleOpts(bin, disasm.Options{Serial: true, Arbitration: arb, Arch: arch})
		if err != nil {
			t.Fatal(err)
		}
		var pars [3]disasm.Aggregated
		var errs [3]error
		var wg sync.WaitGroup
		for i := range pars {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				pars[i], errs[i] = disasm.DisassembleOpts(bin, disasm.Options{Arbitration: arb, Arch: arch})
			}(i)
		}
		wg.Wait()
		for i, par := range pars {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			checkAggEqual(t, idx, arb, serial, par)
		}
	}
}

// checkAggEqual fails unless two Aggregated views of one binary agree
// in every output.
func checkAggEqual(t *testing.T, idx int, arb disasm.Arbitration, serial, par disasm.Aggregated) {
	t.Helper()
	sI, sA := dumpAgg(serial)
	pI, pA := dumpAgg(par)
	if !reflect.DeepEqual(sI, pI) {
		t.Fatalf("cb%d arb %d: instruction sets differ (serial %d, parallel %d)", idx, arb, len(sI), len(pI))
	}
	if !reflect.DeepEqual(sA, pA) {
		t.Fatalf("cb%d arb %d: ambiguous sets differ", idx, arb)
	}
	if !reflect.DeepEqual(serial.Fixed, par.Fixed) {
		t.Fatalf("cb%d arb %d: fixed ranges differ: %v vs %v", idx, arb, serial.Fixed, par.Fixed)
	}
	if !bytes.Equal(classBytes(serial.Classes), classBytes(par.Classes)) {
		t.Fatalf("cb%d arb %d: byte classifications differ", idx, arb)
	}
	if !reflect.DeepEqual(serial.Warnings, par.Warnings) {
		t.Fatalf("cb%d arb %d: warnings differ:\n%v\nvs\n%v", idx, arb, serial.Warnings, par.Warnings)
	}
	if serial.Demoted != par.Demoted || serial.Disputed != par.Disputed {
		t.Fatalf("cb%d arb %d: demoted/disputed %d/%d serial, %d/%d parallel",
			idx, arb, serial.Demoted, serial.Disputed, par.Demoted, par.Disputed)
	}
}

func classBytes(cs []disasm.Class) []byte {
	out := make([]byte, len(cs))
	for i, c := range cs {
		out[i] = byte(c)
	}
	return out
}

// evalCapture runs one corpus evaluation at the given worker count,
// capturing every rewritten image and its stats keyed by the serialized
// input (unique per CB, stable across runs).
func evalCapture(t *testing.T, cbs []cgcsim.CB, layout LayoutKind, workers int) ([]cgcsim.Row, map[string][]byte, map[string]Stats) {
	t.Helper()
	outs := make(map[string][]byte)
	stats := make(map[string]Stats)
	var mu sync.Mutex
	fn := func(b *binfmt.Binary) (*binfmt.Binary, error) {
		key, err := b.Marshal()
		if err != nil {
			return nil, err
		}
		cfg := Config{Transforms: []Transform{Null()}, Layout: layout, Seed: 42}
		if layout == LayoutProfileGuided {
			// Deterministic profile stand-in: treat the entry function as hot.
			cfg.HotFuncs = []uint32{b.Entry}
		}
		out, rep, err := RewriteBinary(b, cfg)
		if err != nil {
			return nil, err
		}
		img, err := out.Marshal()
		if err != nil {
			return nil, err
		}
		mu.Lock()
		outs[string(key)] = img
		stats[string(key)] = rep.Stats
		mu.Unlock()
		return out, nil
	}
	rows, err := cgcsim.EvaluateParallel(cbs, fn, workers)
	if err != nil {
		t.Fatalf("%s j=%d: %v", layout, workers, err)
	}
	return rows, outs, stats
}

// TestEvalWorkersDeterministic checks that -j 1 and -j 8 corpus
// evaluation produce byte-identical rewritten images, identical
// Report.Stats and identical result rows under all three layouts.
func TestEvalWorkersDeterministic(t *testing.T) {
	cbs, err := cgcsim.Corpus(6, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, layout := range []LayoutKind{LayoutOptimized, LayoutDiversity, LayoutProfileGuided} {
		rows1, outs1, stats1 := evalCapture(t, cbs, layout, 1)
		rows8, outs8, stats8 := evalCapture(t, cbs, layout, 8)
		if !reflect.DeepEqual(rows1, rows8) {
			t.Fatalf("%s: result rows differ between j=1 and j=8:\n%v\nvs\n%v", layout, rows1, rows8)
		}
		if len(outs1) != len(cbs) || len(outs8) != len(cbs) {
			t.Fatalf("%s: captured %d/%d rewrites, want %d", layout, len(outs1), len(outs8), len(cbs))
		}
		for key, img1 := range outs1 {
			img8, ok := outs8[key]
			if !ok {
				t.Fatalf("%s: j=8 run missing a binary rewritten at j=1", layout)
			}
			if !bytes.Equal(img1, img8) {
				t.Fatalf("%s: rewritten image differs between j=1 and j=8 (%d vs %d bytes)", layout, len(img1), len(img8))
			}
			if stats1[key] != stats8[key] {
				t.Fatalf("%s: Report.Stats differ between j=1 and j=8:\n%+v\nvs\n%+v", layout, stats1[key], stats8[key])
			}
		}
	}
}

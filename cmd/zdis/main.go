// Command zdis disassembles a ZELF binary, printing the aggregated
// two-disassembler view: relocatable code, fixed data ranges, ambiguous
// bytes, and the pinned addresses the rewriter would plant references
// at.
//
// Usage:
//
//	zdis [-pins] [-classes] [-isa zvm32|zvm64] prog.zelf
package main

import (
	"flag"
	"fmt"
	"os"

	"zipr/internal/binfmt"
	"zipr/internal/cfg"
	"zipr/internal/disasm"
	"zipr/internal/isa"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "zdis:", err)
		os.Exit(1)
	}
}

func run() error {
	pins := flag.Bool("pins", false, "print pinned addresses instead of instructions")
	classes := flag.Bool("classes", false, "print byte-classification summary")
	isaFlag := flag.String("isa", "zvm32", "instruction set of the binary: zvm32 | zvm64")
	flag.Parse()
	if flag.NArg() != 1 {
		return fmt.Errorf("usage: zdis [flags] prog.zelf")
	}
	arch, err := isa.ByName(*isaFlag)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		return err
	}
	bin, err := binfmt.Unmarshal(data)
	if err != nil {
		return err
	}
	agg, err := disasm.DisassembleOpts(bin, disasm.Options{Arch: arch})
	if err != nil {
		return err
	}

	if *classes {
		code, ambig := agg.Code.Count(), agg.Ambig.Count()
		fmt.Printf("code %d bytes, data %d bytes, ambiguous %d bytes, fixed ranges %d\n",
			code, len(bin.Text().Data)-code-ambig, ambig, len(agg.Fixed))
		for _, w := range agg.Warnings {
			fmt.Println("warning:", w)
		}
		return nil
	}
	if *pins {
		prog, err := cfg.BuildOpts(bin, agg, cfg.Options{})
		if err != nil {
			return err
		}
		for _, n := range prog.PinnedInsts() {
			fmt.Printf("%#08x  %s\n", n.OrigAddr, n.Inst.String())
		}
		for _, a := range prog.FixedEntries {
			fmt.Printf("%#08x  (fixed entry)\n", a)
		}
		return nil
	}

	prev := uint32(0)
	agg.Insts.All(func(a uint32, in isa.Inst) bool {
		if prev != 0 && a != prev {
			fmt.Printf("%#08x  ... %d non-code byte(s) ...\n", prev, a-prev)
		}
		extra := ""
		if t, ok := arch.TargetAddr(in, a); ok {
			extra = fmt.Sprintf("\t; -> %#x", t)
		}
		fmt.Printf("%#08x  %s%s\n", a, in.String(), extra)
		prev = a + uint32(arch.InstLen(in))
		return true
	})
	return nil
}

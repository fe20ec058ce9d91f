// Package transform implements the Transformation phase: mandatory
// transformations that decouple the IR from original addresses, and the
// user-transform API the paper describes — iterate functions and
// instructions, change/replace/remove instructions, insert new code —
// plus the security transforms used in the evaluation (Null, CFI,
// stack padding, canaries).
package transform

import (
	"fmt"

	"zipr/internal/ir"
	"zipr/internal/isa"
	"zipr/internal/obs"
)

// Transform is a user-specified transformation over the IR.
type Transform interface {
	// Name identifies the transform in logs and stats.
	Name() string
	// Apply mutates the program IR.
	Apply(ctx *Context) error
}

// Parametric is implemented by transforms whose behavior depends on
// configuration beyond their name (padding widths, canary values,
// shuffle seeds). Params returns a canonical rendering of that
// configuration; it feeds the rewrite-cache fingerprint, so two
// transforms with equal Name and Params must rewrite identically.
// Transforms without parameters need not implement it.
type Parametric interface {
	Params() string
}

// Context is the user-transform API: access to the program plus
// convenience iterators. All mutation goes through the ir.Program
// methods (InsertBefore/InsertAfter/NewInst/AllocData/Defer).
type Context struct {
	Prog *ir.Program
}

// Functions returns the program's function partition.
func (c *Context) Functions() []*ir.Function { return c.Prog.Functions }

// ApplyTraced runs the mandatory transformations followed by the given
// user transforms, in order, with one span per transformation —
// "mandatory", then each user transform under its own name, then
// "normalize" — and per-transform instruction-delta counters emitted to
// tr; a nil trace disables instrumentation.
func ApplyTraced(p *ir.Program, tr *obs.Trace, transforms ...Transform) error {
	sp := tr.Start("mandatory")
	err := Mandatory(p)
	sp.End()
	if err != nil {
		return err
	}
	ctx := &Context{Prog: p}
	for _, t := range transforms {
		sp := tr.Start(t.Name())
		before := len(p.Insts)
		err := t.Apply(ctx)
		sp.End()
		if err != nil {
			return fmt.Errorf("transform %s: %w", t.Name(), err)
		}
		if tr.Enabled() {
			tr.Add("transform."+t.Name()+".insts-delta", int64(len(p.Insts)-before))
		}
	}
	sp = tr.Start("normalize")
	defer sp.End()
	if err := p.Normalize(); err != nil {
		return fmt.Errorf("transform: %w", err)
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("transform: IR invalid after transforms: %w", err)
	}
	return nil
}

// Delete removes an instruction through the user-transform API;
// execution that would have reached it continues at its fallthrough
// (the removal is spliced out before reassembly).
func (c *Context) Delete(n *ir.Instruction) error { return c.Prog.Delete(n) }

// Mandatory performs the platform-mandated IR normalizations (paper
// §II-B1): every span-dependent short branch is widened to its long
// form so instructions can be placed anywhere in the address space; the
// layout algorithm is free to re-shorten references it controls.
func Mandatory(p *ir.Program) error {
	for _, n := range p.Insts {
		switch n.Inst.Op {
		case isa.OpJmp8:
			n.Inst.Op = isa.OpJmp32
		case isa.OpJcc8:
			n.Inst.Op = isa.OpJcc32
		}
	}
	return p.Validate()
}

// Null is the no-op transformation used throughout the paper's
// robustness evaluation: any behavioral or size change in a
// Null-transformed binary is overhead attributable to rewriting itself.
type Null struct{}

var _ Transform = Null{}

// Name implements Transform.
func (Null) Name() string { return "null" }

// Apply implements Transform: it does nothing.
func (Null) Apply(*Context) error { return nil }

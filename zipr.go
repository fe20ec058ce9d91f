// Package zipr is a static binary rewriter for ZVM-32/ZELF binaries,
// reproducing "Zipr: Efficient Static Binary Rewriting for Security"
// (Hawkins, Hiser, Co, Nguyen-Tuong, Davidson — DSN 2017). It rewrites
// programs and shared libraries without keeping a copy of the original
// code: the pipeline disassembles the input with two cooperating
// disassemblers, lifts it to a logical IR with conservative pinned-
// address analysis, applies mandatory and user transformations, and
// reassembles the result with the paper's reference/dollop/chain/sled
// algorithm under a pluggable layout strategy.
//
// Basic usage:
//
//	out, report, err := zipr.Rewrite(input, zipr.Config{
//	    Transforms: []zipr.Transform{zipr.CFI()},
//	})
//
// where input and out are serialized ZELF images.
package zipr

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"zipr/internal/binfmt"
	"zipr/internal/cfg"
	"zipr/internal/core"
	"zipr/internal/disasm"
	"zipr/internal/fault"
	"zipr/internal/ir"
	"zipr/internal/irdb"
	"zipr/internal/isa"
	"zipr/internal/layout"
	"zipr/internal/obs"
	"zipr/internal/transform"
	"zipr/internal/zerr"
)

// Trace is the observability handle threaded through a rewrite: it
// records hierarchical per-phase spans (wall clock plus heap deltas),
// counters and histograms, and emits them to configured sinks on Close.
// Construct with NewTrace; a nil *Trace disables all instrumentation at
// zero allocation cost.
type Trace = obs.Trace

// TraceSink consumes a finished trace (see NewJSONLSink/NewTableSink).
type TraceSink = obs.Sink

// NewTrace creates a trace emitting to the given sinks on Close.
func NewTrace(sinks ...TraceSink) *Trace { return obs.New(sinks...) }

// NewJSONLSink returns a trace sink writing one JSON object per span
// and metric to w (the -trace-out format; parse with obs.ReadJSONL).
func NewJSONLSink(w io.Writer) TraceSink { return obs.NewJSONL(w) }

// NewTableSink returns a trace sink printing a human-readable per-phase
// wall-time and memory-delta table to w (the -phase-times format).
func NewTableSink(w io.Writer) TraceSink { return obs.NewTable(w) }

// Error taxonomy: every error returned by Rewrite/RewriteBinary carries
// exactly one of these classes (test with errors.Is, or map to a short
// name with ErrorClass). The taxonomy backs the pipeline's fail-closed
// contract: a rewrite either returns a correct binary or one cleanly
// classified error — never a silently wrong binary.
var (
	// ErrFormat: the input image failed to parse or validate.
	ErrFormat = zerr.ErrFormat
	// ErrDisasm: disassembly failed.
	ErrDisasm = zerr.ErrDisasm
	// ErrCFG: IR construction failed.
	ErrCFG = zerr.ErrCFG
	// ErrTransform: a transform misused the IR API or produced an
	// invalid program.
	ErrTransform = zerr.ErrTransform
	// ErrLayout: reassembly could not produce a coherent layout.
	ErrLayout = zerr.ErrLayout
	// ErrExhausted: reassembly ran out of address space for a hard
	// constraint the overflow area cannot absorb.
	ErrExhausted = zerr.ErrExhausted
	// ErrLoad: the loader rejected a binary or its library set.
	ErrLoad = zerr.ErrLoad
	// ErrBusy: the serving layer (internal/serve, cmd/ziprd) refused
	// admission — queue full or deadline expired before a worker was
	// free. Transient: the same request can succeed on retry.
	ErrBusy = zerr.ErrBusy
	// ErrInjected marks errors caused by deliberate fault injection; it
	// is orthogonal to the classes above.
	ErrInjected = zerr.ErrInjected
)

// ErrorClass returns the short taxonomy name of err ("format",
// "disasm", "cfg", "transform", "exhausted", "layout", "load"), or ""
// when err carries no class.
func ErrorClass(err error) string { return zerr.ClassName(err) }

// FaultInjector deterministically injects faults into every pipeline
// phase; see Config.Chaos and internal/fault for the fault kinds.
type FaultInjector = fault.Injector

// NewFaultInjector returns a seed-derived fault schedule: different
// seeds arm different fault subsets at different sites, so sweeping
// seeds sweeps schedules. Pass it via Config.Chaos.
func NewFaultInjector(seed int64) *FaultInjector { return fault.New(seed) }

// Transform is a user-specified IR transformation. Construct instances
// with Null, CFI, StackPad or Canary, or implement the interface for
// custom transforms (see the internal/transform package for the API the
// built-ins use).
type Transform = transform.Transform

// Null returns the no-op transform: the rewritten binary is semantically
// identical to the original, so any measured difference is rewriting
// overhead (the paper's robustness baseline).
func Null() Transform { return transform.Null{} }

// CFI returns the control-flow-integrity transform: indirect jumps,
// indirect calls and returns are checked against a bitmap of legal
// targets; violations terminate the program.
func CFI() Transform { return transform.CFI{} }

// StackPad returns the frame-padding transform (the paper's Figure 2
// example): matched stack allocations grow by pad bytes.
func StackPad(pad int32) Transform { return transform.StackPad{Pad: pad} }

// Canary returns the stack-canary transform: protected functions verify
// a canary word before returning.
func Canary(value uint32) Transform { return transform.Canary{Value: value} }

// PinBlocks returns the ablation transform that pins every basic-block
// leader, approximating the paper's naïve "pin everything" baseline for
// measuring how pinned-address count degrades space efficiency.
func PinBlocks() Transform { return transform.PinBlocks{} }

// Stir returns the Binary-Stirring-style transform: fallthrough chains
// are broken at random (seeded) points so the layout can shuffle code at
// block granularity. Pair with LayoutDiversity.
func Stir(seed int64) Transform { return transform.Stir{Seed: seed} }

// NopElide returns the peephole transform that deletes no-op padding,
// demonstrating the instruction-removal half of the transform API.
func NopElide() Transform { return transform.NopElide{} }

// NewProfiler returns the function-entry profiling transform. After a
// rewrite the Counters field maps each original function entry to the
// data address of its 32-bit execution counter; run the instrumented
// binary on training inputs, read the counters out of the machine, and
// pass the hot entries as Config.HotFuncs under LayoutProfileGuided.
func NewProfiler() *transform.Profiler { return &transform.Profiler{} }

// ParseTransforms turns a comma-separated transform specification into
// a transform stack. Each element is a name with an optional ":value"
// parameter:
//
//	null            the no-op baseline
//	cfi             control-flow integrity
//	stackpad[:N]    frame padding of N bytes (default 64)
//	canary[:V]      stack canary with word V (default built-in)
//	stir[:SEED]     block-granularity stirring (default seed 1)
//	nop-elide       no-op padding removal
//	pin-blocks      the pin-everything ablation
//
// An empty spec yields the null stack. This is the one spec grammar:
// cmd/zipr's -transforms flag and cmd/ziprd's requests both take it.
func ParseTransforms(spec string) ([]Transform, error) {
	var tfs []Transform
	for _, field := range strings.Split(spec, ",") {
		name, arg, _ := strings.Cut(strings.TrimSpace(field), ":")
		var bad error
		param := func(def int64) int64 {
			if arg == "" {
				return def
			}
			v, err := strconv.ParseInt(arg, 0, 64)
			if err != nil {
				bad = fmt.Errorf("zipr: transform %q: bad parameter %q", name, arg)
			}
			return v
		}
		var t Transform
		switch name {
		case "", "null":
			t = Null()
		case "cfi":
			t = CFI()
		case "stackpad":
			t = StackPad(int32(param(64)))
		case "canary":
			t = Canary(uint32(param(0)))
		case "stir":
			t = Stir(param(1))
		case "nop-elide", "nopelide":
			t = NopElide()
		case "pin-blocks":
			t = PinBlocks()
		default:
			return nil, fmt.Errorf("zipr: unknown transform %q", name)
		}
		if bad != nil {
			return nil, bad
		}
		tfs = append(tfs, t)
	}
	return tfs, nil
}

// hotRanges converts hot function entries into the original-address
// spans the profile-guided placer classifies hints against. With no hot
// entries it returns immediately — the common non-PGO configuration
// used to walk every instruction of every function for nothing.
func hotRanges(prog *ir.Program, hotFuncs []uint32) []ir.Range {
	if len(hotFuncs) == 0 {
		return nil
	}
	hotSet := make(map[uint32]bool, len(hotFuncs))
	for _, a := range hotFuncs {
		hotSet[a] = true
	}
	arch := prog.ISA()
	var ranges []ir.Range
	for _, f := range prog.Functions {
		if f.Entry == nil || !hotSet[f.Entry.OrigAddr] {
			continue
		}
		r := ir.Range{Start: f.Entry.OrigAddr, End: f.Entry.OrigAddr + 1}
		for _, n := range f.Insts {
			if n.OrigAddr == 0 {
				continue
			}
			if n.OrigAddr < r.Start {
				r.Start = n.OrigAddr
			}
			if end := n.OrigAddr + uint32(arch.InstLen(n.Inst)); end > r.End {
				r.End = end
			}
		}
		if r.End > r.Start {
			ranges = append(ranges, r)
		}
	}
	return ir.MergeRanges(ranges)
}

// LayoutKind selects the code-placement strategy (paper §III).
type LayoutKind string

// Layout strategies.
const (
	// LayoutOptimized places code back at pinned addresses and near its
	// referents, minimizing file-size and MaxRSS overhead (the CGC
	// configuration, and the default).
	LayoutOptimized LayoutKind = "optimized"
	// LayoutDiversity scatters code randomly (seeded) for code-layout
	// diversity.
	LayoutDiversity LayoutKind = "diversity"
	// LayoutProfileGuided packs the functions listed in Config.HotFuncs
	// densely and pushes cold code away, shrinking the working set of
	// profile-conforming runs. Collect profiles with NewProfiler.
	LayoutProfileGuided LayoutKind = "profile-guided"
)

// ArbitrationKind selects the disassembly code/data arbitration
// policy (see internal/disasm and internal/infer).
type ArbitrationKind string

// Arbitration policies.
const (
	// ArbitrationTwoWay aggregates the linear sweep and the recursive
	// traversal with the paper's conservative four-case policy (the
	// default; the empty string means the same).
	ArbitrationTwoWay ArbitrationKind = "two-way"
	// ArbitrationWeighted adds the Datalog-style inference disassembler
	// as a third vote: ambiguous candidates it confidently classifies
	// as data lose their conservative pins, shrinking sleds and output
	// size. Candidates below the inference thresholds keep the two-way
	// pin treatment, so rewrites stay transcript-safe.
	ArbitrationWeighted ArbitrationKind = "weighted"
)

// Config controls a rewrite.
type Config struct {
	// Transforms are applied in order after the mandatory transforms.
	Transforms []Transform
	// Layout selects the placement strategy; default LayoutOptimized.
	Layout LayoutKind
	// Arbitration selects the disassembly arbitration policy; default
	// ArbitrationTwoWay.
	Arbitration ArbitrationKind
	// ISA selects the instruction-set architecture the input is decoded
	// and re-encoded under: "zvm32" (the default; the empty string means
	// the same) or "zvm64" (fixed-width 4-byte encoding, ±1 MiB branch
	// reach, range-extension veneers instead of chains and sleds).
	ISA string
	// Seed drives LayoutDiversity's randomness.
	Seed int64
	// HotFuncs lists original function-entry addresses to treat as hot
	// under LayoutProfileGuided (e.g. functions whose profiler counters
	// crossed a threshold).
	HotFuncs []uint32
	// CaptureIR stores the constructed IR into Report.IRDB for
	// inspection with SQL.
	CaptureIR bool
	// EmitMap fills Report.AddrMap with the original-to-rewritten
	// address mapping of every relocated instruction (a linker-map
	// equivalent, useful for symbolization and debugging).
	EmitMap bool
	// CaptureSnapshot exports a placement snapshot of the rewrite into
	// Report.Snapshot: the function units plus per-instruction placed
	// addresses, enough for Snapshot.Apply to answer a future rewrite of
	// a locally edited input without running the pipeline (see
	// DESIGN.md §11). Capture is best-effort — Snapshot
	// stays nil when the configuration or input is outside the delta-
	// eligible class (unknown custom transforms, pipeline fault injection
	// armed), and Report.Warnings then names the reason — and, like
	// CaptureIR/EmitMap, never changes the output.
	// Only Rewrite captures a snapshot; RewriteBinary ignores the field.
	CaptureSnapshot bool
	// Trace, when non-nil, records per-phase spans (disassembly, CFG and
	// pin analysis, each transform by name, the reassembly sub-phases)
	// plus counters and histograms for this rewrite. The caller owns the
	// trace: call Trace.Close to flush it to its sinks. A nil Trace
	// disables instrumentation with no allocation overhead.
	Trace *Trace
	// Chaos, when non-nil, threads deterministic fault injection through
	// every pipeline phase (see NewFaultInjector). Injected faults must
	// end in a transcript-equivalent binary (the degradation path
	// absorbed the fault) or a typed error — the chaos harness enforces
	// this invariant. Nil disables injection with no overhead.
	Chaos *FaultInjector
}

// ParseConfig builds the Config a request names in the wire form that
// cmd/ziprd serves and the fleet gateway routes on: a transform spec
// (ParseTransforms), the layout, arbitration and ISA names, and the
// diversity seed. It fails on a bad spec or on a name Check refuses.
func ParseConfig(transforms, layout, arbitration, isaName string, seed int64) (Config, error) {
	tfs, err := ParseTransforms(transforms)
	if err != nil {
		return Config{}, err
	}
	c := Config{Transforms: tfs, Layout: LayoutKind(layout), Arbitration: ArbitrationKind(arbitration), ISA: isaName, Seed: seed}
	return c, c.Check()
}

// EffectiveLayout is the layout strategy c selects: Layout, with the
// empty string meaning LayoutOptimized. It is also the Report.Layout of
// a rewrite under c that installs no custom placer.
func (c Config) EffectiveLayout() LayoutKind {
	if c.Layout == "" {
		return LayoutOptimized
	}
	return c.Layout
}

// Check refuses a Config that names an unknown arbitration, layout or
// ISA, in that order, with the error RewriteBinary returns for it
// (classes disasm, layout and disasm). RewriteBinary runs it before any
// pipeline work; a front end runs it to refuse a request up front.
func (c Config) Check() error {
	_, err := c.resolve()
	return err
}

// choices is what a Config's names select.
type choices struct {
	arb       disasm.Arbitration
	newPlacer func(*ir.Program) core.Placer
	arch      isa.Arch
}

// resolve maps c's arbitration, layout and ISA names onto the pipeline's
// choices; Check is its error.
func (c Config) resolve() (choices, error) {
	var ch choices
	switch c.Arbitration {
	case "", ArbitrationTwoWay:
		ch.arb = disasm.ArbTwoWay
	case ArbitrationWeighted:
		ch.arb = disasm.ArbWeighted
	default:
		return ch, fmt.Errorf("zipr: %w: unknown arbitration %q", zerr.ErrDisasm, c.Arbitration)
	}
	switch c.EffectiveLayout() {
	case LayoutOptimized:
		ch.newPlacer = func(*ir.Program) core.Placer { return layout.Optimized{} }
	case LayoutDiversity:
		ch.newPlacer = func(*ir.Program) core.Placer { return layout.NewDiversity(c.Seed) }
	case LayoutProfileGuided:
		ch.newPlacer = func(p *ir.Program) core.Placer { return &layout.ProfileGuided{Hot: hotRanges(p, c.HotFuncs)} }
	default:
		return ch, fmt.Errorf("zipr: %w: unknown layout %q", zerr.ErrLayout, c.Layout)
	}
	var err error
	if ch.arch, err = isa.ByName(c.ISA); err != nil {
		return ch, fmt.Errorf("zipr: %w", zerr.Tag(zerr.ErrDisasm, err))
	}
	return ch, nil
}

// TransformParams is implemented by transforms whose behavior depends
// on configuration beyond their name (padding widths, canary values,
// shuffle seeds). Config.Fingerprint folds Params() into the rewrite-
// cache key, so two transforms with equal Name and Params must rewrite
// identically; the parametrized built-ins (StackPad, Canary, Stir)
// implement it, and custom parametrized transforms should too — a
// transform that varies behavior without varying its fingerprint will
// alias other configurations' cache entries.
type TransformParams = transform.Parametric

// Fingerprint returns a canonical, human-readable description of every
// Config field that can change the rewritten bytes: the transform stack
// in application order (names plus TransformParams), the layout
// strategy, the layout seeds that matter under it, and the chaos
// schedule when fault injection is armed. Observability and capture
// settings (Trace, CaptureIR, EmitMap) are excluded — they never alter
// the output image.
//
// Equal fingerprints plus byte-identical inputs imply byte-identical
// outputs (the pipeline is deterministic), which is exactly the
// contract the internal/serve content-addressed cache keys on.
func (c Config) Fingerprint() string {
	var sb strings.Builder
	sb.WriteString("cfg-v1")
	layoutKind := c.EffectiveLayout()
	fmt.Fprintf(&sb, "|layout=%s", layoutKind)
	if layoutKind == LayoutDiversity {
		// The seed only reaches the placer under the diversity layout;
		// folding it in unconditionally would split identical rewrites
		// across distinct cache keys.
		fmt.Fprintf(&sb, "|seed=%d", c.Seed)
	}
	if layoutKind == LayoutProfileGuided && len(c.HotFuncs) > 0 {
		// hotRanges treats HotFuncs as a set: order and duplicates are
		// behaviorally irrelevant, so canonicalize to sorted-unique.
		hot := append([]uint32(nil), c.HotFuncs...)
		sort.Slice(hot, func(i, j int) bool { return hot[i] < hot[j] })
		sb.WriteString("|hot=")
		var last uint32
		for i, a := range hot {
			if i > 0 && a == last {
				continue
			}
			fmt.Fprintf(&sb, "%x,", a)
			last = a
		}
	}
	if c.Arbitration != "" && c.Arbitration != ArbitrationTwoWay {
		// Two-way is the default: folding it in explicitly would split
		// the default's cache entries. Any other mode changes which
		// addresses get pinned and therefore the output bytes.
		fmt.Fprintf(&sb, "|arb=%s", c.Arbitration)
	}
	if c.ISA != "" && c.ISA != "zvm32" {
		// Same default-elision rule: every pre-abstraction fingerprint was
		// produced under zvm32, and folding the default in would orphan
		// all existing cache entries and golden digests.
		fmt.Fprintf(&sb, "|isa=%s", c.ISA)
	}
	for _, t := range c.Transforms {
		fmt.Fprintf(&sb, "|t:%s", t.Name())
		if p, ok := t.(transform.Parametric); ok {
			fmt.Fprintf(&sb, "{%s}", p.Params())
		}
	}
	if c.Chaos.Enabled() {
		fmt.Fprintf(&sb, "|chaos=%d", c.Chaos.Seed())
	}
	return sb.String()
}

// Stats summarizes what the reassembler did; see the paper's §II-C for
// the vocabulary and core.Stats for the fields.
type Stats = core.Stats

// Report describes a completed rewrite.
type Report struct {
	Stats    Stats
	Layout   string   // placement strategy used
	Warnings []string // conservative-analysis diagnostics
	// InputSize and OutputSize are serialized file sizes (the CGC
	// file-size metric).
	InputSize, OutputSize int
	// IRDB holds the constructed IR when Config.CaptureIR is set; query
	// it with SQL (tables: instructions, functions, fixed_ranges,
	// warnings).
	IRDB *irdb.DB
	// AddrMap maps original instruction addresses to their rewritten
	// locations when Config.EmitMap is set.
	AddrMap map[uint32]uint32
	// Snapshot holds the placement snapshot when Config.CaptureSnapshot
	// is set and the rewrite was delta-eligible; nil otherwise.
	Snapshot *Snapshot
}

// Snapshot is a placement snapshot for incremental (delta) rewriting:
// it records the ancestor input/output images with their SHA-256
// digests, the function units, and the placed address of every
// delta-eligible instruction. Snapshot.Apply answers a rewrite of a
// locally edited input byte-for-byte identically to a from-scratch
// rewrite — or refuses with ErrDeltaInapplicable/ErrSnapshotStale, in
// which case the caller runs the full pipeline (degradation costs
// latency, never correctness). The digests are checked when a snapshot
// is made (Rewrite), rebased or read back (UnmarshalSnapshot), not on
// every Apply: a caller that keeps a snapshot whose images may have
// changed since calls Verify before applying it.
type Snapshot = core.Snapshot

// DeltaInfo reports what a Snapshot.Apply changed.
type DeltaInfo = core.DeltaInfo

// Delta errors (test with errors.Is).
var (
	// ErrDeltaInapplicable: the edit falls outside the snapshot's
	// supported class; fall back to a full rewrite.
	ErrDeltaInapplicable = core.ErrDeltaInapplicable
	// ErrSnapshotStale: the snapshot failed integrity verification;
	// evict it and fall back to a full rewrite.
	ErrSnapshotStale = core.ErrSnapshotStale
)

// snapshotSafeTransforms reports whether every transform in the stack is
// a built-in whose decisions are provably invariant under the delta
// path's free-immediate edits, and whether any of them reads stack-
// pointer adjustment immediates (StackPad/Canary — those instructions
// are then excluded from editing). Unknown custom transforms could read
// any immediate, so their presence disables snapshot capture entirely.
func snapshotSafeTransforms(transforms []Transform) (safe, frameSensitive bool) {
	for _, t := range transforms {
		switch t.(type) {
		case transform.StackPad, transform.Canary:
			frameSensitive = true
		case transform.Null, transform.CFI, transform.PinBlocks,
			transform.Stir, transform.NopElide, *transform.Profiler:
		default:
			return false, false
		}
	}
	return true, frameSensitive
}

// captureSnapshot builds the placement snapshot of a finished rewrite,
// on every ISA: the snapshot records the program's Arch, and Apply and
// Rebase decode under it. Capture is best-effort: an ineligible rewrite
// (a custom placer, armed pipeline chaos, a transform the eligibility
// check cannot reason about, or a failed build) gets no snapshot, bumps
// one rewrite.snapshot.skipped.<reason> trace counter, and returns the
// report warning that names the reason.
func captureSnapshot(prog *ir.Program, res *core.Result, cfgv Config, customPlacer bool, inj *FaultInjector, tr *Trace) (*core.Snapshot, string) {
	safe, frameSensitive := snapshotSafeTransforms(cfgv.Transforms)
	var reason, why string
	switch {
	case customPlacer:
		reason, why = "placer", "a custom placer's choices cannot be replayed"
	case inj.ArmedPipeline():
		reason, why = "chaos", "pipeline fault injection is armed"
	case !safe:
		reason, why = "transforms", "a transform is not known to keep its choices under constant edits"
	default:
		sp := tr.Start("snapshot")
		snap, err := core.BuildSnapshot(prog, res, frameSensitive, cfgv.Fingerprint())
		sp.End()
		if err == nil {
			return snap, ""
		}
		reason, why = "build-error", err.Error()
	}
	tr.Add("rewrite.snapshot.skipped."+reason, 1)
	return nil, fmt.Sprintf("snapshot capture declined (%s): %s", reason, why)
}

// SizeOverhead returns the relative file growth (e.g. 0.03 = +3%).
func (r *Report) SizeOverhead() float64 {
	if r.InputSize == 0 {
		return 0
	}
	return float64(r.OutputSize-r.InputSize) / float64(r.InputSize)
}

// corruptImage returns a deterministically corrupted copy of a ZELF
// image. Both corruption modes are guaranteed-detectable by Unmarshal —
// a strict prefix starves a bounds-checked read (the format has no
// trailing padding), and the magic contains no zero byte — so injection
// can never smuggle a silently different program through the parser.
func corruptImage(inj *FaultInjector, input []byte) []byte {
	img := append([]byte(nil), input...)
	if inj.Pick(fault.SectionCorrupt, uint32(len(input)), 2) == 0 && len(img) > 1 {
		return img[:inj.Pick(fault.SectionCorrupt, uint32(len(input))^1, len(img))]
	}
	img[inj.Pick(fault.SectionCorrupt, uint32(len(input))^2, 4)] = 0
	return img
}

// Rewrite rewrites a serialized ZELF image and returns the rewritten
// image plus a report.
func Rewrite(input []byte, cfgv Config) ([]byte, *Report, error) {
	inj := cfgv.Chaos.WithTrace(cfgv.Trace)
	cfgv.Chaos = inj
	img := input
	injected := false
	if len(input) >= 4 && inj.Fires(fault.SectionCorrupt, uint32(len(input))) {
		// Corrupt a copy: the fail-closed contract promises the caller's
		// original bytes stay intact on every error path.
		img = corruptImage(inj, input)
		injected = true
	}
	bin, err := binfmt.Unmarshal(img)
	if err != nil {
		if injected {
			err = fmt.Errorf("%w (%w)", err, zerr.ErrInjected)
		}
		return nil, nil, fmt.Errorf("zipr: %w", zerr.Tag(zerr.ErrFormat, err))
	}
	out, report, err := rewriteBinaryPlacer(bin, cfgv, nil)
	if err != nil {
		return nil, nil, err
	}
	data, err := out.Marshal()
	if err != nil {
		return nil, nil, fmt.Errorf("zipr: %w", zerr.Tag(zerr.ErrLayout, err))
	}
	report.InputSize = len(input)
	report.OutputSize = len(data)
	if report.Snapshot != nil {
		// Attach the serialized images (verifying the recorded text
		// offsets against them); a snapshot that fails verification is
		// withheld rather than exported.
		// injected means the parsed image was a chaos-corrupted copy; a
		// snapshot of it would describe bytes the caller never sent.
		if injected || report.Snapshot.Finish(input, data) != nil {
			report.Snapshot = nil
		}
	}
	return data, report, nil
}

// RewriteBinary is Rewrite for in-memory binaries. It captures no
// snapshot: one records the serialized images, which only Rewrite has.
func RewriteBinary(bin *binfmt.Binary, cfgv Config) (*binfmt.Binary, *Report, error) {
	cfgv.CaptureSnapshot = false
	return rewriteBinaryPlacer(bin, cfgv, nil)
}

// rewriteBinaryPlacer is RewriteBinary with a placer-construction hook:
// when newPlacer is non-nil it overrides the Config.Layout selection.
// The hook exists for the byte-identity regression tests, which drive
// full rewrites with the legacy slice-scanning placers and compare the
// output against the indexed-allocator versions bit for bit.
func rewriteBinaryPlacer(bin *binfmt.Binary, cfgv Config, newPlacer func(*ir.Program) core.Placer) (*binfmt.Binary, *Report, error) {
	tr := cfgv.Trace
	inj := cfgv.Chaos.WithTrace(tr)
	root := tr.Start("rewrite")
	defer root.End()

	// The names are resolved before any pipeline work, so a bad one
	// fails at once.
	ch, err := cfgv.resolve()
	if err != nil {
		return nil, nil, err
	}
	custom := newPlacer != nil
	if custom {
		ch.newPlacer = newPlacer
	}
	out, report, err := rewriteOnce(bin, cfgv, ch, custom, tr, inj)
	if err != nil && ch.arb == disasm.ArbWeighted {
		// Weighted arbitration is advisory: its demotions shrink the pin
		// set, and a downstream phase can fail on the reshaped inputs
		// (e.g. a deferred table sized for the smaller target set hits a
		// probe-bound cluster). The documented worst case of arbitration
		// is the two-way baseline, so fall back to it deterministically
		// rather than failing a rewrite the baseline can complete.
		ferr := err
		ch.arb = disasm.ArbTwoWay
		if out, report, err = rewriteOnce(bin, cfgv, ch, custom, tr, inj); err == nil {
			tr.Add("rewrite.arb-fallback", 1)
			report.Warnings = append(report.Warnings,
				fmt.Sprintf("weighted arbitration fell back to two-way: %v", ferr))
		} else {
			err = ferr // report the weighted attempt's failure
		}
	}
	return out, report, err
}

// rewriteOnce runs the three-phase pipeline under ch's arbitration mode,
// ISA and placer; custom reports that the caller supplied the placer in
// place of Config.Layout's.
func rewriteOnce(bin *binfmt.Binary, cfgv Config, ch choices, custom bool, tr *Trace, inj *FaultInjector) (*binfmt.Binary, *Report, error) {
	// Phase 1: IR construction (disassembly, CFG, pinned addresses).
	sp := tr.Start("disassemble")
	agg, err := disasm.DisassembleOpts(bin, disasm.Options{Trace: tr, Inject: inj, Arbitration: ch.arb, Arch: ch.arch})
	sp.End()
	if err != nil {
		return nil, nil, fmt.Errorf("zipr: %w", zerr.Tag(zerr.ErrDisasm, err))
	}
	sp = tr.Start("cfg-pins")
	prog, err := cfg.BuildOpts(bin, agg, cfg.Options{Trace: tr, Inject: inj})
	sp.End()
	if err != nil {
		return nil, nil, fmt.Errorf("zipr: %w", zerr.Tag(zerr.ErrCFG, err))
	}
	report := &Report{}
	if cfgv.CaptureIR {
		sp = tr.Start("capture-ir")
		db := irdb.New()
		err := ir.SaveToDB(db, prog)
		sp.End()
		if err != nil {
			return nil, nil, fmt.Errorf("zipr: %w", zerr.Tag(zerr.ErrCFG, err))
		}
		report.IRDB = db
	}

	// Phase 2: transformation (mandatory + user transforms).
	transforms := cfgv.Transforms
	if inj.Armed(fault.TransformMisuse) {
		// The misuse transform runs after the user's, abusing the same
		// API surface they had access to.
		transforms = append(append([]Transform(nil), transforms...), transform.Chaos{Inj: inj})
	}
	sp = tr.Start("transform")
	err = transform.ApplyTraced(prog, tr, transforms...)
	sp.End()
	if err != nil {
		return nil, nil, fmt.Errorf("zipr: %w", zerr.Tag(zerr.ErrTransform, err))
	}

	// Phase 3: reassembly under the selected layout.
	placer := ch.newPlacer(prog)
	sp = tr.Start("reassemble")
	res, err := core.Reassemble(prog, core.Options{Placer: placer, Trace: tr, Inject: inj})
	sp.End()
	if err != nil {
		return nil, nil, fmt.Errorf("zipr: %w", zerr.Tag(zerr.ErrLayout, err))
	}
	report.Stats = res.Stats
	report.Layout = placer.Name()
	var declined string
	if cfgv.CaptureSnapshot {
		report.Snapshot, declined = captureSnapshot(prog, res, cfgv, custom, inj, tr)
	}
	if cfgv.EmitMap {
		report.AddrMap = make(map[uint32]uint32)
		for _, n := range prog.Insts {
			if n.OrigAddr == 0 {
				continue
			}
			if a, ok := res.Layout.AddrOf(n); ok {
				report.AddrMap[n.OrigAddr] = a
			}
		}
	}
	report.Warnings = append(report.Warnings, prog.Warnings...)
	if declined != "" {
		report.Warnings = append(report.Warnings, declined)
	}
	report.InputSize = bin.FileSize()
	report.OutputSize = res.Binary.FileSize()
	if tr.Enabled() {
		tr.Add("rewrite.count", 1)
		tr.Add("rewrite.warnings", int64(len(report.Warnings)))
		tr.SetGauge("rewrite.input-bytes", int64(report.InputSize))
		tr.SetGauge("rewrite.output-bytes", int64(report.OutputSize))
	}
	return res.Binary, report, nil
}

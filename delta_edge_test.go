package zipr

// Partition and delta-admission edge cases (ISSUE 7 satellite): shared
// tail chains reachable from two entries, zero-function inputs, and a
// rel8→rel32 widening of an outgoing branch. The contract under test is
// two-outcome: either the delta path applies and is byte-identical to a
// from-scratch rewrite (checkDeltaIdentity), or it refuses with a typed
// error and the caller's full-rewrite fallback produces the answer.

import (
	"bytes"
	"errors"
	"regexp"
	"strings"
	"testing"

	"zipr/internal/ir"
	"zipr/internal/synth"
)

// sharedTailSrc has two functions whose control flow joins at a shared
// tail: f1 jumps into the block f2 falls through to, so the function
// flood assigns the tail's instructions to both functions and their
// extents overlap.
const sharedTailSrc = `
.text 0x00100000
main:
    movi r1, 5
    call f1
    call f2
    movi r0, 1
    syscall
f1:
    movi r2, 111
    add r1, r2
    jmp tail
f2:
    movi r2, 222
    add r1, r2
tail:
    addi r1, 7
    ret
`

func TestDeltaSharedTailMergesUnits(t *testing.T) {
	base := mustImage(t, sharedTailSrc)
	cfg := Config{CaptureSnapshot: true}
	_, rep, err := Rewrite(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Snapshot == nil {
		t.Fatal("no snapshot captured")
	}
	// f1, f2 and the shared tail must have coalesced into a single unit:
	// no unit boundary may fall strictly inside the f1..tail span, or an
	// edit near the seam could be misattributed.
	var span *ir.Range
	for i := range rep.Snapshot.Units {
		u := rep.Snapshot.Units[i].Range
		for _, other := range rep.Snapshot.Units {
			if other.Range != u && other.Range.Overlaps(u) {
				t.Fatalf("overlapping units %+v and %+v", u, other.Range)
			}
		}
		if span == nil || u.Len() > span.Len() {
			span = &rep.Snapshot.Units[i].Range
		}
	}
	if span == nil {
		t.Fatal("no units recorded")
	}
	// The merged unit must cover both movi sites (f1's and f2's bodies).
	edited := mustImage(t, strings.Replace(sharedTailSrc, "movi r2, 111", "movi r2, 119", 1))
	if !checkDeltaIdentity(t, Config{}, base, edited) {
		t.Fatal("delta refused an edit inside the shared-tail unit")
	}
	edited = mustImage(t, strings.NewReplacer("movi r2, 111", "movi r2, 7", "movi r2, 222", "movi r2, 8").Replace(sharedTailSrc))
	if !checkDeltaIdentity(t, Config{}, base, edited) {
		t.Fatal("delta refused edits to both functions sharing the tail")
	}
}

func TestPartitionUnitsZeroFunctions(t *testing.T) {
	// No program at all, and a program with no functions: both partition
	// to zero units rather than erroring.
	if units := ir.PartitionUnits(&ir.Program{}); units != nil {
		t.Fatalf("nil-binary program partitioned to %v", units)
	}
	bin := mustBinary(t, sharedTailSrc)
	if units := ir.PartitionUnits(&ir.Program{Bin: bin}); units != nil {
		t.Fatalf("zero-function program partitioned to %v", units)
	}
}

// dataOnlyFuncSrc is a program whose single function body embeds data in
// text (the handwritten-assembly shape): its unit overlaps a fixed range
// so the snapshot records no units, and every edit must be refused.
const dataOnlyFuncSrc = `
.text 0x00100000
main:
    movi r1, 41
    jmp over
blob: .word 0x11223344, 0x55667788
over:
    loadpc r2, blob
    xor r1, r2
    movi r0, 1
    syscall
`

func TestDeltaZeroUnitsRefusesEverything(t *testing.T) {
	base := mustImage(t, dataOnlyFuncSrc)
	_, rep, err := Rewrite(base, Config{CaptureSnapshot: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Snapshot == nil {
		t.Fatal("no snapshot captured")
	}
	if len(rep.Snapshot.Units) != 0 {
		t.Fatalf("fixed-overlapping function yielded %d units", len(rep.Snapshot.Units))
	}
	edited := mustImage(t, strings.Replace(dataOnlyFuncSrc, "movi r1, 41", "movi r1, 42", 1))
	if _, _, err := rep.Snapshot.Apply(edited); !errors.Is(err, ErrDeltaInapplicable) {
		t.Fatalf("edit with zero units: got %v, want ErrDeltaInapplicable", err)
	}
	// Identical input is the degenerate success: zero changed units.
	out, info, err := rep.Snapshot.Apply(base)
	if err != nil || info.UnitsChanged != 0 {
		t.Fatalf("identical input: err=%v changed=%+v", err, info)
	}
	if !bytes.Equal(out.Bytes(), rep.Snapshot.Output.Bytes()) {
		t.Fatal("identical input did not reproduce the ancestor output")
	}
}

// shortJumpRe matches a generated short-form conditional branch.
var shortJumpRe = regexp.MustCompile(`^(    )(jz|jnz)\.s (\S+)$`)

// widenShortBranch returns src with the first short-form conditional
// branch (`jz.s`/`jnz.s`) rewritten to its rel32 form — a structural
// edit that changes the encoded instruction length. Returns ok=false
// when the program has no short branch to widen.
func widenShortBranch(src string) (out string, ok bool) {
	lines := strings.Split(src, "\n")
	for i, line := range lines {
		if m := shortJumpRe.FindStringSubmatch(line); m != nil {
			lines[i] = m[1] + m[2] + " " + m[3]
			return strings.Join(lines, "\n"), true
		}
	}
	return src, false
}

// TestDeltaWideningRefused covers the rel8→rel32 structural edit: the
// edited function's instruction boundaries change, so the delta path
// must refuse (typed) and the full pipeline must handle the widened
// input — never a divergent binary.
func TestDeltaWideningRefused(t *testing.T) {
	seed, prof := synth.CBProfile(2)
	src := synth.Generate(seed, prof)
	wsrc, ok := widenShortBranch(src)
	if !ok {
		t.Fatal("no short branch to widen in the generated program")
	}
	base, edited := mustImage(t, src), mustImage(t, wsrc)
	cfg := Config{CaptureSnapshot: true}
	_, rep, err := Rewrite(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Snapshot == nil {
		t.Fatal("no snapshot captured")
	}
	if _, _, err := rep.Snapshot.Apply(edited); !errors.Is(err, ErrDeltaInapplicable) {
		t.Fatalf("widened branch: got %v, want ErrDeltaInapplicable", err)
	}
	if _, _, err := Rewrite(edited, Config{}); err != nil {
		t.Fatalf("full-rewrite fallback of widened input failed: %v", err)
	}
}

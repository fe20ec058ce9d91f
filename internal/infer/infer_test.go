package infer

// Table-driven rule tests: each case assembles a small fixture whose
// layout isolates one inference rule, then checks the beliefs (weight
// and provenance) the engine derives. Fixtures name their regions of
// interest with a leading run of `lea r1, label` instructions at the
// entry — lea forms an address without seeding reachability or data
// facts, so the markers are inference-neutral.

import (
	"fmt"
	"strings"
	"testing"

	"zipr/internal/asm"
	"zipr/internal/binfmt"
	"zipr/internal/isa"
)

// leaLabels returns the targets of the lea instructions at the start of
// the entry block, in source order.
func leaLabels(t *testing.T, bin *binfmt.Binary) []uint32 {
	t.Helper()
	text := bin.Text()
	addr := bin.Entry
	var out []uint32
	for {
		in, err := isa.ZVM32.Decode(text.Data[addr-text.VAddr:], addr)
		if err != nil || in.Op != isa.OpLea {
			return out
		}
		tgt, ok := isa.ZVM32.TargetAddr(in, addr)
		if !ok {
			t.Fatalf("lea at %#x has no target", addr)
		}
		out = append(out, tgt)
		addr += uint32(isa.ZVM32.InstLen(in))
	}
}

func analyzeSrc(t *testing.T, src string) (*Result, []uint32) {
	t.Helper()
	bin, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("fixture does not assemble: %v", err)
	}
	return analyze(bin), leaLabels(t, bin)
}

// analyze decodes bin's text under the default ISA and runs inference
// over the table.
func analyze(bin *binfmt.Binary) *Result {
	text := bin.Text()
	return Analyze(bin, isa.DecodeText(nil, text.Data, text.VAddr))
}

func TestRules(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		check func(t *testing.T, r *Result, labels []uint32)
	}{
		{
			// The axiom: everything reachable from the entry is code at
			// full weight, and is never demotable.
			name: "strong-reach",
			src: `
.text 0x00100000
.entry main
main:
    lea r1, main
    movi r2, 7
    ret
`,
			check: func(t *testing.T, r *Result, labels []uint32) {
				w, rule := r.CodeBelief(labels[0])
				if w != WeightStrong || rule != RuleStrongReach {
					t.Fatalf("entry belief %d/%s, want %d/%s", w, rule, WeightStrong, RuleStrongReach)
				}
				if v, _ := r.Verdict(labels[0], 1); v != VerdictCode {
					t.Fatalf("entry verdict %d, want VerdictCode", v)
				}
			},
		},
		{
			// A provably-reached loadpc names four bytes of data.
			name: "data-access",
			src: `
.text 0x00100000
.entry main
main:
    lea r1, blob
    loadpc r2, blob
    ret
blob: .word 0x11223344
`,
			check: func(t *testing.T, r *Result, labels []uint32) {
				for i := uint32(0); i < 4; i++ {
					w, rule := r.ByteBelief(labels[0] + i)
					if w != WeightDataAccess || rule != RuleDataAccess {
						t.Fatalf("blob+%d belief %d/%s, want %d/%s", i, w, rule, WeightDataAccess, RuleDataAccess)
					}
				}
			},
		},
		{
			// An aligned in-text word holding a code address: the word's
			// bytes are data (the slot), its target is believed code (the
			// pointer-target seed) and flow from the target stays believed
			// (code-flow), so none of the jump-table case chain is
			// demotable even though no direct flow reaches it.
			name: "table-slot and ptr-target",
			src: `
.text 0x00100000
.entry main
main:
    lea r1, tab
    lea r2, case0
    lea r3, joined
    loadpc r4, tab
    ret
.align 4
tab:  .word case0
case0:
    addi r8, 11
    jmp joined
joined:
    inc r8
    ret
`,
			check: func(t *testing.T, r *Result, labels []uint32) {
				tab, case0, joined := labels[0], labels[1], labels[2]
				if w, rule := r.ByteBelief(tab); w != WeightDataAccess || rule != RuleDataAccess {
					// loadpc evidence (90) outranks the slot's own 70.
					t.Fatalf("tab belief %d/%s, want %d/%s", w, rule, WeightDataAccess, RuleDataAccess)
				}
				if w, rule := r.CodeBelief(case0); w != WeightPtrTarget || rule != RulePtrTarget {
					t.Fatalf("case0 belief %d/%s, want %d/%s", w, rule, WeightPtrTarget, RulePtrTarget)
				}
				if w, rule := r.CodeBelief(joined); w < codeFloor || rule != RuleCodeFlow {
					t.Fatalf("joined belief %d/%s, want >=%d/%s", w, rule, codeFloor, RuleCodeFlow)
				}
				for _, a := range []uint32{case0, joined} {
					if v, _ := r.Verdict(a, 2); v != VerdictCode {
						t.Fatalf("%#x verdict %d, want VerdictCode (demotion must be blocked)", a, v)
					}
				}
			},
		},
		{
			// The slot rule alone (no loadpc): the word's own bytes carry
			// WeightTableSlot.
			name: "table-slot bytes",
			src: `
.text 0x00100000
.entry main
main:
    lea r1, tab
    ret
.align 4
tab:  .word target
target:
    ret
`,
			check: func(t *testing.T, r *Result, labels []uint32) {
				if w, rule := r.ByteBelief(labels[0]); w != WeightTableSlot || rule != RuleTableSlot {
					t.Fatalf("tab belief %d/%s, want %d/%s", w, rule, WeightTableSlot, RuleTableSlot)
				}
			},
		},
		{
			// Printable runs outside strong coverage are data.
			name: "string-run",
			src: `
.text 0x00100000
.entry main
main:
    lea r1, msg
    ret
msg: .asciz "hello, world"
`,
			check: func(t *testing.T, r *Result, labels []uint32) {
				// Per-byte facts: the whole string, NUL included, is
				// string-run evidence.
				for i := uint32(0); i < 13; i++ {
					w, rule := r.ByteBelief(labels[0] + i)
					if w != WeightString || rule != RuleStringRun {
						t.Fatalf("msg+%d belief %d/%s, want %d/%s", i, w, rule, WeightString, RuleStringRun)
					}
				}
				// And the candidate spanning them is demotable.
				if v, _ := r.Verdict(labels[0], 6); v != VerdictData {
					t.Fatalf("string candidate not demotable")
				}
			},
		},
		{
			// A candidate whose decode chain must reach undecodable bytes
			// cannot be code: 0x90 is nop (falls through), 0xFF does not
			// decode, so the nop candidate is refuted transitively.
			name: "dead-end",
			src: `
.text 0x00100000
.entry main
main:
    lea r1, junk
    ret
junk: .byte 0x90, 0x90, 0xFF, 0xFF
`,
			check: func(t *testing.T, r *Result, labels []uint32) {
				for i := uint32(0); i < 2; i++ {
					w, rule := r.DataBelief(labels[0]+i, 1)
					if w != WeightDeadEnd || rule != RuleDeadEnd {
						t.Fatalf("junk+%d belief %d/%s, want %d/%s", i, w, rule, WeightDeadEnd, RuleDeadEnd)
					}
					if v, _ := r.Verdict(labels[0]+i, 1); v != VerdictData {
						t.Fatalf("junk+%d not demotable", i)
					}
				}
			},
		},
		{
			// A short unevidenced gap between two data-evidenced regions
			// inside one non-strong run is coalesced into data.
			name: "data-gap",
			src: `
.text 0x00100000
.entry main
main:
    lea r1, gap
    loadpc r2, blob
    ret
blob: .word 0x11223344
gap:  .byte 0x01, 0x02, 0x03, 0x04
      .asciz "coalesce me"
`,
			check: func(t *testing.T, r *Result, labels []uint32) {
				for i := uint32(0); i < 4; i++ {
					w, rule := r.ByteBelief(labels[0] + i)
					if w != WeightDataGap || rule != RuleDataGap {
						t.Fatalf("gap+%d belief %d/%s, want %d/%s", i, w, rule, WeightDataGap, RuleDataGap)
					}
				}
			},
		},
		{
			// Code belief always wins: these slot bytes are printable AND
			// hold a code pointer, but the slot's target is ptr-believed,
			// so the target's verdict is Code regardless of data evidence
			// on its own span.
			name: "code belief blocks demotion",
			src: `
.text 0x00100000
.entry main
main:
    lea r1, target
    ret
.align 4
tab:  .word target
target:
    inc r8
    ret
`,
			check: func(t *testing.T, r *Result, labels []uint32) {
				if v, _ := r.Verdict(labels[0], 2); v != VerdictCode {
					t.Fatalf("ptr-targeted candidate must keep VerdictCode")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, labels := analyzeSrc(t, tc.src)
			tc.check(t, r, labels)
		})
	}
}

// TestOverlapConflict pins the overlap rule: candidates decoding inside
// the span of a provably-reached instruction are junk. The movi
// immediate 0x90909090 makes every interior byte decode as nop, so the
// interior candidates all conflict with the strong movi.
func TestOverlapConflict(t *testing.T) {
	r, labels := analyzeSrc(t, `
.text 0x00100000
.entry main
main:
    lea r1, ov
ov: movi r2, 0x90909090
    ret
`)
	ov := labels[0]
	if w, rule := r.CodeBelief(ov); w != WeightStrong || rule != RuleStrongReach {
		t.Fatalf("movi belief %d/%s, want strong", w, rule)
	}
	// The movi is 1 opcode + 1 reg + 4 imm bytes; interior offsets 2..5
	// decode as nop candidates overlapping it.
	for i := uint32(2); i < 6; i++ {
		w, rule := r.DataBelief(ov+i, 1)
		if w != WeightOverlap || rule != RuleOverlap {
			t.Fatalf("interior candidate at +%d: belief %d/%s, want %d/%s",
				i, w, rule, WeightOverlap, RuleOverlap)
		}
		if v, _ := r.Verdict(ov+i, 1); v != VerdictData {
			t.Fatalf("interior candidate at +%d not demotable", i)
		}
	}
}

// TestFixedPointTerminationCyclic is the cyclic-edge worst case: a ring
// of branch candidates none of which is reachable from the entry, with
// a single pointer-word seed into the ring. Both fixed points must
// terminate (structurally — this test would hang otherwise), the ring
// must stay viable (no dead end exists on a cycle), and code belief
// must saturate around the ring at the floor instead of looping.
func TestFixedPointTerminationCyclic(t *testing.T) {
	const ringLen = 257
	var sb strings.Builder
	sb.WriteString(".text 0x00100000\n.entry main\nmain:\n    lea r1, ring0\n    ret\n.align 4\ntab: .word ring0\n")
	for i := 0; i < ringLen; i++ {
		fmt.Fprintf(&sb, "ring%d: jmp ring%d\n", i, (i+1)%ringLen)
	}
	r, labels := analyzeSrc(t, sb.String())
	ring0 := labels[0]
	if w, rule := r.CodeBelief(ring0); w != WeightPtrTarget || rule != RulePtrTarget {
		t.Fatalf("ring0 belief %d/%s, want %d/%s", w, rule, WeightPtrTarget, RulePtrTarget)
	}
	// Every ring member ends believed-code at or above the propagation
	// floor: the cycle converged instead of decaying to zero or looping.
	for i := 0; i < ringLen; i++ {
		addr := ring0 + uint32(i*5) // jmp rel32 is 5 bytes
		w, _ := r.CodeBelief(addr)
		if w < codeFloor {
			t.Fatalf("ring%d belief %d, want >= %d", i, w, codeFloor)
		}
		if dw, drule := r.DataBelief(addr, 5); dw >= DataThreshold {
			t.Fatalf("ring%d gained data belief %d/%s on a live cycle", i, dw, drule)
		}
	}
	// (Stats.Nonviable is nonzero here: misaligned junk decodes inside
	// the jmp immediates dead-end as usual. The ring *starts* staying
	// below DataThreshold — asserted above — is the cycle property.)
	if st := r.Stats(); st.Iterations == 0 {
		t.Fatal("fixed point reported zero iterations")
	}
}

// TestViabilityCycleWithDeadExit pins the direction of the greatest
// fixed point: a two-candidate loop that also requires a dead successor
// is refuted, while a self-contained loop survives.
func TestViabilityCycleWithDeadExit(t *testing.T) {
	r, labels := analyzeSrc(t, `
.text 0x00100000
.entry main
main:
    lea r1, looper
    lea r2, doomed
    ret
looper: jmp looper
doomed: jz.s dead
        jmp doomed
dead:   .byte 0xFF
`)
	looper, doomed := labels[0], labels[1]
	if w, _ := r.DataBelief(looper, 5); w >= DataThreshold {
		t.Fatalf("self-loop refuted (belief %d); cycles must stay viable", w)
	}
	// doomed's jz.s requires `dead` (undecodable) to be viable code, so
	// the whole chain is refuted transitively.
	if w, rule := r.DataBelief(doomed, 2); w != WeightDeadEnd || rule != RuleDeadEnd {
		t.Fatalf("doomed belief %d/%s, want %d/%s", w, rule, WeightDeadEnd, RuleDeadEnd)
	}
}

// TestStatsPopulated sanity-checks the metric counters on a fixture
// exercising several rules at once.
func TestStatsPopulated(t *testing.T) {
	r, _ := analyzeSrc(t, `
.text 0x00100000
.entry main
main:
    loadpc r2, blob
    ret
blob: .word 0x11223344
      .asciz "stats fixture"
`)
	st := r.Stats()
	if st.Candidates == 0 || st.StrongStarts == 0 || st.FactBytes == 0 || st.Raised == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
}

// TestNoTextSegment: a binary without text yields an empty result, not
// a panic.
func TestNoTextSegment(t *testing.T) {
	r := Analyze(&binfmt.Binary{}, nil)
	if w, rule := r.CodeBelief(0x100000); w != 0 || rule != RuleNone {
		t.Fatalf("empty result answered %d/%s", w, rule)
	}
	if v, _ := r.Verdict(0x100000, 4); v != VerdictUnknown {
		t.Fatalf("empty result gave a verdict")
	}
}

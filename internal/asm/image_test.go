package asm_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"zipr/internal/asm"
	"zipr/internal/isa"
	"zipr/internal/synth"
)

// imageSource is one assembler input whose marshalled image is pinned.
type imageSource struct {
	name string
	src  func(arch isa.Arch) string
}

// imageSources lists every source shape the evaluation builds: the CGC
// corpus, the robustness libraries and executables, the veneer program
// and the delta-stress input.
func imageSources() []imageSource {
	gen := func(seed int64, p synth.Profile) func(isa.Arch) string {
		return func(arch isa.Arch) string { return synth.GenerateArch(seed, p, arch) }
	}
	var out []imageSource
	for i := 0; i < synth.CorpusSize; i++ {
		seed, p := synth.CBProfile(i)
		out = append(out, imageSource{p.Name, gen(seed, p)})
	}
	out = append(out,
		imageSource{"slibc", gen(11, synth.LibcProfile(1.0))},
		imageSource{"sjvm", gen(12, synth.JVMProfile(0.1))},
	)
	exeP, libPs := synth.ApacheProfiles(1.0)
	for i, lp := range libPs {
		out = append(out, imageSource{lp.Name, gen(int64(300+i), lp)})
	}
	out = append(out,
		imageSource{exeP.Name, gen(299, exeP)},
		imageSource{synth.VeneerStressName, func(isa.Arch) string { return synth.VeneerStressSource() }},
		imageSource{"dstress", gen(0xDE15A, synth.Profile{
			Name: "dstress", NumFuncs: 12000, OpsMin: 5, OpsMax: 12,
			FuncPtrTableFrac: 0.3, DataWords: 2048, InputLen: 8, LoopIters: 4,
		})},
	)
	return out
}

// imageDigest assembles src for arch and returns the sha256 of the
// marshalled image, or the error text when the source does not
// assemble there (the large inputs overrun ZVM-64's branch reach).
func imageDigest(src string, arch isa.Arch) (string, error) {
	bin, err := asm.AssembleArch(src, arch)
	if err != nil {
		return err.Error(), nil
	}
	data, err := bin.Marshal()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// readImageDigests loads testdata/image_digests.txt: one
// "name arch result" line per pinned image, where result is the image
// digest or the assembler's error text.
func readImageDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/image_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok1 := strings.Cut(sc.Text(), " ")
		arch, result, ok2 := strings.Cut(rest, " ")
		if !ok1 || !ok2 {
			t.Fatalf("bad digest line %q", sc.Text())
		}
		want[name+" "+arch] = result
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestImageDigests pins the assembled bytes of every evaluation input on
// both ISAs: any change to what the assembler accepts or emits for them
// shows up as a digest mismatch.
func TestImageDigests(t *testing.T) {
	want := readImageDigests(t)
	seen := 0
	for _, s := range imageSources() {
		for _, arch := range []isa.Arch{isa.ZVM32, isa.ZVM64} {
			key := s.name + " " + arch.Name()
			got, err := imageDigest(s.src(arch), arch)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if w, ok := want[key]; !ok {
				t.Errorf("%s: no pinned digest", key)
			} else if got != w {
				t.Errorf("%s: got %s, pinned %s", key, got, w)
			}
			seen++
		}
	}
	if seen != len(want) {
		t.Errorf("checked %d images, %d pinned", seen, len(want))
	}
}

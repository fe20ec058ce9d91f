package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zipr"
	"zipr/internal/synth"
)

// writeInput writes a small synthesized binary with stack frames and
// returns its path and image.
func writeInput(t *testing.T) (string, []byte) {
	t.Helper()
	bin, err := synth.Build(0xD43D, synth.Profile{
		Name: "ziprtest", NumFuncs: 8, OpsMin: 4, OpsMax: 10,
		HandwrittenFrac: 0.2, FuncPtrTableFrac: 0.3, DataWords: 32,
		InputLen: 4, LoopIters: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	img, err := bin.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "in.zelf")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, img
}

// TestTransformsFlagTakesWireSpec: -transforms takes the spec grammar
// of zipr.ParseTransforms, parameters included, and writes the bytes
// zipr.Rewrite produces for the parsed stack.
func TestTransformsFlagTakesWireSpec(t *testing.T) {
	in, img := writeInput(t)
	for _, spec := range []string{"cfi,stackpad:32", "stackpad", "stir:9,nop-elide"} {
		out := filepath.Join(t.TempDir(), "out.zelf")
		var stdout bytes.Buffer
		if err := run([]string{"-transforms", spec, in, out}, &stdout, io.Discard); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		tfs, err := zipr.ParseTransforms(spec)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := zipr.Rewrite(img, zipr.Config{Transforms: tfs})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: written bytes differ from zipr.Rewrite's", spec)
		}
		if !strings.Contains(stdout.String(), "layout optimized") {
			t.Errorf("%s: report %q names no layout", spec, stdout.String())
		}
	}
	// A bare stackpad pads 64 bytes, as the removed -pad flag defaulted.
	a, _ := zipr.ParseTransforms("stackpad")
	b, _ := zipr.ParseTransforms("stackpad:64")
	if (zipr.Config{Transforms: a}).Fingerprint() != (zipr.Config{Transforms: b}).Fingerprint() {
		t.Error("stackpad without a parameter does not pad 64")
	}
}

// TestTransformsFlagRefusesBadSpec: an unknown transform or a bad
// parameter fails with the parser's error and writes nothing.
func TestTransformsFlagRefusesBadSpec(t *testing.T) {
	in, _ := writeInput(t)
	for _, spec := range []string{"cfi,bogus", "stackpad:xyz"} {
		_, want := zipr.ParseTransforms(spec)
		if want == nil {
			t.Fatalf("%s: parser accepted it", spec)
		}
		out := filepath.Join(t.TempDir(), "out.zelf")
		err := run([]string{"-transforms", spec, in, out}, io.Discard, io.Discard)
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%s: err = %v, want the parser's %v", spec, err, want)
		}
		if _, serr := os.Stat(out); !os.IsNotExist(serr) {
			t.Errorf("%s: output written despite the error", spec)
		}
	}
	// The -pad flag is gone.
	if err := run([]string{"-pad", "32", in, filepath.Join(t.TempDir(), "out.zelf")}, io.Discard, io.Discard); err == nil {
		t.Error("-pad accepted")
	}
}

package zipr

import (
	"strings"
	"testing"
)

// TestParseTransforms covers the wire spec syntax.
func TestParseTransforms(t *testing.T) {
	tfs, err := ParseTransforms("null,cfi,stackpad:32,canary:0x7A437A43,stir:9,nop-elide")
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(tfs))
	for i, tf := range tfs {
		names[i] = tf.Name()
	}
	want := []string{"null", "cfi", "stackpad", "canary", "stir", "nop-elide"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
	if _, err := ParseTransforms("bogus"); err == nil {
		t.Fatal("unknown transform accepted")
	}
	if _, err := ParseTransforms("stackpad:xyz"); err == nil {
		t.Fatal("bad parameter accepted")
	}
	// Parameters must reach the fingerprint (distinct cache keys).
	a, _ := ParseTransforms("stackpad:32")
	b, _ := ParseTransforms("stackpad:48")
	fa := Config{Transforms: a}.Fingerprint()
	fb := Config{Transforms: b}.Fingerprint()
	if fa == fb {
		t.Fatalf("stackpad parameter lost in fingerprint: %q", fa)
	}
}

// TestConfigCheck: Check refuses unknown arbitration, layout and ISA
// names in that order, each with RewriteBinary's class and text, and
// accepts every known name, the empty defaults included.
func TestConfigCheck(t *testing.T) {
	for _, tc := range []struct {
		cfg         Config
		class, text string // "" = accepted
	}{
		{Config{}, "", ""},
		{Config{Arbitration: ArbitrationWeighted, Layout: LayoutProfileGuided, ISA: "zvm64"}, "", ""},
		{Config{Arbitration: ArbitrationTwoWay, Layout: LayoutDiversity, ISA: "zvm32"}, "", ""},
		{Config{Arbitration: "bogus", Layout: "bogus", ISA: "bogus"}, "disasm", `unknown arbitration "bogus"`},
		{Config{Layout: "bogus", ISA: "bogus"}, "layout", `unknown layout "bogus"`},
		{Config{ISA: "bogus"}, "disasm", `unknown ISA "bogus"`},
	} {
		err := tc.cfg.Check()
		if tc.class == "" {
			if err != nil {
				t.Errorf("%+v: %v", tc.cfg, err)
			}
			continue
		}
		if err == nil || ErrorClass(err) != tc.class || !strings.Contains(err.Error(), tc.text) {
			t.Errorf("%+v: err = %v (class %q), want class %q naming %s", tc.cfg, err, ErrorClass(err), tc.class, tc.text)
		}
		if _, _, rerr := RewriteBinary(nil, tc.cfg); rerr == nil || rerr.Error() != err.Error() {
			t.Errorf("%+v: RewriteBinary err = %v, want Check's %v", tc.cfg, rerr, err)
		}
	}
}

// TestParseConfig: a wire request's Config carries every named field,
// and a bad spec or name is refused with the parser's or Check's error.
func TestParseConfig(t *testing.T) {
	c, err := ParseConfig("cfi,stackpad:32", "diversity", "weighted", "zvm64", 7)
	if err != nil {
		t.Fatal(err)
	}
	tfs, _ := ParseTransforms("cfi,stackpad:32")
	want := Config{Transforms: tfs, Layout: LayoutDiversity, Arbitration: ArbitrationWeighted, ISA: "zvm64", Seed: 7}
	if c.Fingerprint() != want.Fingerprint() {
		t.Fatalf("fingerprint %q, want %q", c.Fingerprint(), want.Fingerprint())
	}
	if _, err := ParseConfig("bogus", "", "", "", 0); err == nil || !strings.Contains(err.Error(), `unknown transform "bogus"`) {
		t.Fatalf("bad spec: %v", err)
	}
	if _, err := ParseConfig("", "bogus", "", "", 0); err == nil || ErrorClass(err) != "layout" {
		t.Fatalf("bad layout: %v", err)
	}
}

package zipr

import (
	"testing"

	"zipr/internal/cgcsim"
	"zipr/internal/isa"
)

func TestZVM64Smoke(t *testing.T) {
	cbs, err := cgcsim.Corpus(5, isa.ZVM64)
	if err != nil {
		t.Fatal(err)
	}
	for _, cb := range cbs {
		_, baseT, err := cgcsim.MeasureArch(cb.Bin, nil, cb.Pollers, isa.ZVM64)
		if err != nil {
			t.Fatalf("%s baseline: %v", cb.Name, err)
		}
		res, rep, err := RewriteBinary(cb.Bin.Clone(), Config{ISA: "zvm64", Transforms: []Transform{CFI()}})
		if err != nil {
			t.Fatalf("%s rewrite: %v", cb.Name, err)
		}
		_, newT, err := cgcsim.MeasureArch(res, nil, cb.Pollers, isa.ZVM64)
		if err != nil {
			t.Fatalf("%s rewritten run: %v", cb.Name, err)
		}
		if !cgcsim.Equivalent(baseT, newT) {
			t.Fatalf("%s: transcripts differ base=%+v new=%+v", cb.Name, baseT, newT)
		}
		t.Logf("%s ok: stats=%+v", cb.Name, rep.Stats)
	}
}

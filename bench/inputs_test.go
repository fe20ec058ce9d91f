package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"zipr"
	"zipr/internal/asm"
	"zipr/internal/isa"
	"zipr/internal/obs"
	"zipr/internal/synth"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ZVM32, isa.ZVM64} {
		for _, i := range []int{3, synth.PathologicalCB} {
			a, err := buildCB(i, 7, arch, corpusCfg(arch), 2)
			if err != nil {
				t.Fatal(err)
			}
			b, err := buildCB(i, 7, arch, corpusCfg(arch), 2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.img, b.img) || !bytes.Equal(a.runs[0].stdin, b.runs[0].stdin) {
				t.Errorf("cb%d on %s: two generations differ", i, arch.Name())
			}
			other, err := buildCB(i, 8, arch, corpusCfg(arch), 2)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(a.img, other.img) {
				t.Errorf("cb%d on %s: seeds 7 and 8 give the same program", i, arch.Name())
			}
		}
	}
	// Seed 0 is the canonical corpus.
	canon, err := synth.Build(synth.CBProfile(5))
	if err != nil {
		t.Fatal(err)
	}
	cimg, _ := canon.Marshal()
	p, err := buildCB(5, 0, isa.ZVM32, corpusCfg(isa.ZVM32), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.img, cimg) {
		t.Error("seed 0 does not reproduce the canonical cb05")
	}
}

// smallFamilies builds a stand-in for the serve families from three
// small corpus programs, the last playing the large family.
func smallFamilies(t *testing.T) []*family {
	t.Helper()
	var fams []*family
	for _, i := range []int{0, 20, 40} {
		s, p := cbSeed(i, 3)
		img, sites, err := assembleWithSites(synth.Generate(s, p), isa.ZVM32)
		if err != nil {
			t.Fatal(err)
		}
		fams = append(fams, &family{name: p.Name, arch: isa.ZVM32, base: img, sites: sites})
	}
	return fams
}

func TestSameSeedSameRequestStream(t *testing.T) {
	gen := func() (*serveSet, []novelSpec) {
		set := &serveSet{fams: smallFamilies(t)}
		novel := set.genStream(rand.New(rand.NewSource(42)), 600)
		return set, novel
	}
	a, an := gen()
	b, bn := gen()
	if !reflect.DeepEqual(a.reqs, b.reqs) || !reflect.DeepEqual(an, bn) {
		t.Fatal("two generations of the request stream differ")
	}
	var edits, novel int
	for i, r := range a.reqs {
		if r.fam < 0 {
			novel++
			continue
		}
		if r.edit {
			edits++
		}
		ia, _, _ := a.input(r)
		ib, _, _ := b.input(r)
		if !bytes.Equal(ia, ib) {
			t.Fatalf("request %d: inputs differ", i)
		}
	}
	if edits != 180 || novel != 60 {
		t.Errorf("600 requests hold %d edits and %d never-seen programs; want 180 and 60", edits, novel)
	}
}

// TestEditMatchesMutateConsts checks that patching the image reproduces
// assembling synth.MutateConsts' source, across a chain of two edits.
func TestEditMatchesMutateConsts(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ZVM32, isa.ZVM64} {
		s, p := cbSeed(9, 0)
		src := synth.GenerateArch(s, p, arch)
		img, sites, err := assembleWithSites(src, arch)
		if err != nil {
			t.Fatal(err)
		}
		want := assemble(t, src, arch)
		if !bytes.Equal(img, want) {
			t.Fatalf("%s: image with edit sites differs from the plain assembly", arch.Name())
		}
		for _, seed := range []int64{11, 12} {
			var n int
			src, n = synth.MutateConsts(src, seed, 1)
			if n != 1 {
				t.Fatalf("%s: MutateConsts found no mutable function", arch.Name())
			}
			apply(img, sites.mutate(seed))
			if !bytes.Equal(img, assemble(t, src, arch)) {
				t.Fatalf("%s: edit %d differs from assembling MutateConsts' source", arch.Name(), seed)
			}
		}
	}
}

func assemble(t *testing.T, src string, arch isa.Arch) []byte {
	t.Helper()
	bin, err := asm.AssembleArch(src, arch)
	if err != nil {
		t.Fatal(err)
	}
	img, err := bin.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestComposedMatchesRewrite checks the traced run's layer-by-layer
// pipeline against zipr.Rewrite: a ZVM-32 program whose weighted
// rewrite falls back to two-way arbitration, and a ZVM-64 program.
func TestComposedMatchesRewrite(t *testing.T) {
	weighted := corpusCfg(isa.ZVM32)
	weighted.Arbitration = zipr.ArbitrationWeighted
	for _, c := range []struct {
		i    int
		seed int64
		arch isa.Arch
		cfg  zipr.Config
	}{
		{2, 9, isa.ZVM32, weighted}, // this rewrite falls back to two-way
		{3, 0, isa.ZVM64, corpusCfg(isa.ZVM64)},
	} {
		p, err := buildCB(c.i, c.seed, c.arch, c.cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, rep, err := zipr.Rewrite(p.img, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if c.cfg.Arbitration == zipr.ArbitrationWeighted && !strings.Contains(strings.Join(rep.Warnings, "\n"), "fell back") {
			t.Logf("%s no longer falls back to two-way; the fallback mirror is untested", p.name)
		}
		for _, mode := range []composeMode{
			{tr: obs.New(), serial: true, allocs: true},
			{},
		} {
			got, lc, err := rewriteLayers(p.img, c.cfg, mode)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s on %s (traced=%v): composed output differs from zipr.Rewrite", p.name, c.arch.Name(), mode.tr != nil)
			}
			if lc.total <= 0 || lc.disasm <= 0 || lc.core <= 0 {
				t.Errorf("%s: layer clock not filled: %+v", p.name, lc)
			}
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the harness and BENCHMARK.json in
// step: the same workloads, metric names, units and directions, the
// nominal run length, and a bound for every metric compare gates.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		benchSpec
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, harness %d", spec.RunSeconds, runSeconds)
	}
	for _, g := range extraGates {
		if g.boundOf == "" {
			if _, ok := pointBounds[g.name]; !ok {
				t.Errorf("gated extra %s has no bound", g.name)
			}
			continue
		}
		found := false
		for _, m := range spec.EndToEnd {
			found = found || m.Name == g.boundOf
		}
		if !found {
			t.Errorf("gated extra %s takes the bound of %s, which BENCHMARK.json lacks", g.name, g.boundOf)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, harness %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if m.Name != d.name || m.Unit != d.unit || m.Better != better {
				t.Errorf("%s %d: BENCHMARK.json %+v, harness %+v", kind, i, m, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

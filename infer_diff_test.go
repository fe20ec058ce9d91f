package zipr

// Differential suite for the weighted three-way arbitration (ISSUE 9):
// for every corpus program, the weighted rewrite must be
// execution-equivalent (VM transcripts over the CB's pollers) to both
// the original binary and the conservative two-way baseline, and its
// pin and sled counts must never exceed the baseline's. The aggregate
// totals must be strictly below the baseline — the whole point of the
// inference disassembler is a net pin reduction — and the per-program
// delta table this test logs with -v is the source of the
// EXPERIMENTS.md "Inference arbitration" table.

import (
	"testing"

	"zipr/internal/binfmt"
	"zipr/internal/cgcsim"
	"zipr/internal/synth"
)

func TestWeightedArbitrationDifferential(t *testing.T) {
	corpus, err := cgcsim.Corpus(synth.CorpusSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	stride := goldenStride
	if testing.Short() && stride < 4 {
		stride = 4
	}
	type row struct {
		name           string
		pins2, pinsW   int
		sleds2, sledsW int
		demoted        int
	}
	var rows []row
	var totPins2, totPinsW, totSleds2, totSledsW int
	for i, cb := range corpus {
		if i%stride != 0 {
			continue
		}
		input, err := cb.Bin.Marshal()
		if err != nil {
			t.Fatalf("%s: marshal: %v", cb.Name, err)
		}
		_, origTS, err := cgcsim.MeasureArch(cb.Bin, nil, cb.Pollers, nil)
		if err != nil {
			t.Fatalf("%s: original execution: %v", cb.Name, err)
		}
		run := func(arb ArbitrationKind) ([]byte, *Report) {
			out, rep, err := Rewrite(input, Config{
				Transforms:  []Transform{Null()},
				Arbitration: arb,
			})
			if err != nil {
				t.Fatalf("%s: rewrite (%s): %v", cb.Name, arb, err)
			}
			rw, err := binfmt.Unmarshal(out)
			if err != nil {
				t.Fatalf("%s: unmarshal (%s): %v", cb.Name, arb, err)
			}
			_, ts, err := cgcsim.MeasureArch(rw, nil, cb.Pollers, nil)
			if err != nil {
				t.Fatalf("%s: rewritten execution (%s): %v", cb.Name, arb, err)
			}
			if !cgcsim.Equivalent(origTS, ts) {
				t.Errorf("%s: %s rewrite transcripts differ from the original", cb.Name, arb)
			}
			return out, rep
		}
		_, rep2 := run(ArbitrationTwoWay)
		_, repW := run(ArbitrationWeighted)
		if repW.Stats.Pinned > rep2.Stats.Pinned {
			t.Errorf("%s: weighted arbitration pinned MORE (%d) than two-way (%d)",
				cb.Name, repW.Stats.Pinned, rep2.Stats.Pinned)
		}
		if repW.Stats.Sleds > rep2.Stats.Sleds {
			t.Errorf("%s: weighted arbitration emitted more sleds (%d) than two-way (%d)",
				cb.Name, repW.Stats.Sleds, rep2.Stats.Sleds)
		}
		rows = append(rows, row{
			name:  cb.Name,
			pins2: rep2.Stats.Pinned, pinsW: repW.Stats.Pinned,
			sleds2: rep2.Stats.Sleds, sledsW: repW.Stats.Sleds,
			demoted: rep2.Stats.Pinned - repW.Stats.Pinned,
		})
		totPins2 += rep2.Stats.Pinned
		totPinsW += repW.Stats.Pinned
		totSleds2 += rep2.Stats.Sleds
		totSledsW += repW.Stats.Sleds
	}
	if totPinsW >= totPins2 {
		t.Errorf("weighted arbitration did not reduce aggregate pins: %d vs two-way %d",
			totPinsW, totPins2)
	}
	if totSledsW > totSleds2 {
		t.Errorf("weighted arbitration grew aggregate sleds: %d vs two-way %d",
			totSledsW, totSleds2)
	}
	t.Logf("%-14s %8s %8s %8s %8s %8s", "program", "pins2w", "pins3w", "sleds2w", "sleds3w", "Δpins")
	for _, r := range rows {
		t.Logf("%-14s %8d %8d %8d %8d %8d", r.name, r.pins2, r.pinsW, r.sleds2, r.sledsW, r.demoted)
	}
	t.Logf("%-14s %8d %8d %8d %8d %8d (stride %d)",
		"TOTAL", totPins2, totPinsW, totSleds2, totSledsW, totPins2-totPinsW, stride)
}

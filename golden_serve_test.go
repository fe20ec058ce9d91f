package zipr_test

// Serving-layer golden gate: a sample of golden cells is answered
// through the serve.Server (cold miss, then cache hit) and both answers
// must match the digest pinned in testdata/golden/corpus.json. This
// ties the cache path into the same regression gate as the pipeline:
// a cache that returns anything but the pinned bytes — stale entries,
// truncation, key collisions — fails here even if the pipeline itself
// is untouched. Lives in the external test package because
// internal/serve imports zipr.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"zipr"
	"zipr/internal/cgcsim"
	"zipr/internal/serve"
	"zipr/internal/synth"
)

// serveGoldenCells mirrors the cell matrix of golden_test.go for the
// sampled programs. The stack and layout constants must match
// goldenStacks/goldenLayouts; a mismatch shows up as a missing golden
// key, not a silent pass.
func serveGoldenConfigs() map[string]zipr.Config {
	full := func() []zipr.Transform {
		return []zipr.Transform{zipr.Stir(0x57123), zipr.NopElide(), zipr.StackPad(48), zipr.Canary(0xA5A5A5A5), zipr.CFI()}
	}
	return map[string]zipr.Config{
		"null/optimized": {Transforms: []zipr.Transform{zipr.Null()}},
		"cfi/optimized":  {Transforms: []zipr.Transform{zipr.CFI()}},
		"full/diversity": {Transforms: full(), Layout: zipr.LayoutDiversity, Seed: 0x60D5},
	}
}

func TestGoldenThroughServer(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden/corpus.json")
	if err != nil {
		t.Fatalf("golden file missing (%v); generate it with: go test -run TestGoldenCorpus -update .", err)
	}
	var pinned struct {
		Cells map[string]struct {
			Image string `json:"image"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(raw, &pinned); err != nil {
		t.Fatal(err)
	}
	// A spread of corpus programs, including the pathological CB.
	indices := []int{0, 17, 38, synth.PathologicalCB}
	corpus, err := cgcsim.Corpus(synth.CorpusSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(serve.Options{Workers: 2})
	defer s.Close()
	for _, idx := range indices {
		cb := corpus[idx]
		input, err := cb.Bin.Marshal()
		if err != nil {
			t.Fatalf("%s: marshal: %v", cb.Name, err)
		}
		for cell, cfg := range serveGoldenConfigs() {
			key := cb.Name + "/" + cell
			want, ok := pinned.Cells[key]
			if !ok {
				t.Errorf("%s: not pinned in golden file (cell matrix drifted from golden_test.go?)", key)
				continue
			}
			for _, label := range []string{"cold", "hot"} {
				out, _, err := s.Rewrite(context.Background(), input, cfg)
				if err != nil {
					t.Errorf("%s: %s serve: %v", key, label, err)
					break
				}
				sum := sha256.Sum256(out)
				if got := hex.EncodeToString(sum[:]); got != want.Image {
					t.Errorf("%s: %s serve answer drifted from pinned image digest\n  pinned %s\n  got    %s",
						key, label, want.Image, got)
					break
				}
			}
		}
	}
	st := s.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("gate exercised no cache hits or no misses (stats %+v)", st)
	}
}

package zipr

// Golden-transcript regression suite: every corpus program is rewritten
// under every (transform stack x layout x arbitration) cell and two
// digests are pinned in testdata/golden/corpus.json — the SHA-256 of the
// rewritten image and the SHA-256 of its execution transcripts over the
// CB's pollers. Any drift in pipeline output, byte-level or behavioral,
// fails the suite with the exact cell that moved.
//
// Regenerate after an intentional output change with:
//
//	go test -run TestGoldenCorpus -update .
//
// Regeneration is deterministic (the pipeline is seed-driven
// end-to-end), so two -update runs produce identical files; the diff of
// corpus.json in review is the authoritative list of cells an
// optimization touched. Under the race detector the suite strides the
// corpus (goldenStride, see golden_stride_race_test.go) to stay inside
// CI budgets on small machines; plain `go test` covers every cell.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"zipr/internal/binfmt"
	"zipr/internal/cgcsim"
	"zipr/internal/synth"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/golden/corpus.json from the current pipeline")

const goldenPath = "testdata/golden/corpus.json"

// goldenCell pins one (program, stack, layout, arbitration) cell.
type goldenCell struct {
	Image      string `json:"image"`      // sha256 of the rewritten ZELF image
	Transcript string `json:"transcript"` // sha256 of the poller transcripts
}

type goldenFile struct {
	Version int                   `json:"version"`
	Cells   map[string]goldenCell `json:"cells"`
}

// goldenStack is one pinned transform stack. Parameters are fixed
// constants: the suite pins outputs, so every knob must be explicit.
type goldenStack struct {
	name string
	tfs  func() []Transform
}

func goldenStacks() []goldenStack {
	return []goldenStack{
		{"null", func() []Transform { return []Transform{Null()} }},
		{"cfi", func() []Transform { return []Transform{CFI()} }},
		{"full", func() []Transform {
			return []Transform{Stir(0x57123), NopElide(), StackPad(48), Canary(0xA5A5A5A5), CFI()}
		}},
	}
}

type goldenLayout struct {
	name   string
	layout LayoutKind
	seed   int64
}

func goldenLayouts() []goldenLayout {
	return []goldenLayout{
		{"optimized", LayoutOptimized, 0},
		{"diversity", LayoutDiversity, 0x60D5},
	}
}

// goldenArb is one pinned arbitration mode. The default two-way mode
// keeps the bare (suffix-free) cell keys the suite has always pinned,
// so this dimension's addition provably left all pre-existing digests
// untouched: their keys and values are byte-identical in corpus.json.
type goldenArb struct {
	suffix string // "" = legacy key format
	arb    ArbitrationKind
}

func goldenArbs() []goldenArb {
	return []goldenArb{
		{"", ArbitrationTwoWay},
		{"weighted", ArbitrationWeighted},
	}
}

// transcriptDigest hashes a transcript set with length-prefixed framing
// so (exit, output) pairs cannot alias across pollers.
func transcriptDigest(ts []cgcsim.Transcript) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(ts)))
	h.Write(buf[:4])
	for _, tr := range ts {
		binary.LittleEndian.PutUint32(buf[:4], uint32(tr.Exit))
		binary.LittleEndian.PutUint32(buf[4:8], uint32(len(tr.Output)))
		h.Write(buf[:8])
		h.Write(tr.Output)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenCellKey names one cell in the golden file. An empty arb suffix
// (the default two-way mode) yields the legacy three-part key.
func goldenCellKey(cb, stack, layout, arb string) string {
	key := cb + "/" + stack + "/" + layout
	if arb != "" {
		key += "/" + arb
	}
	return key
}

func loadGolden(t *testing.T) *goldenFile {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden file missing (%v); generate it with: go test -run TestGoldenCorpus -update .", err)
	}
	var g goldenFile
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatalf("golden file corrupt: %v", err)
	}
	if g.Version != 1 {
		t.Fatalf("golden file version %d, this suite expects 1", g.Version)
	}
	return &g
}

func TestGoldenCorpus(t *testing.T) {
	stride := goldenStride
	if testing.Short() && stride < 4 {
		stride = 4
	}
	if *updateGolden && stride != 1 {
		t.Fatal("-update needs the full corpus: run without -race and -short")
	}
	corpus, err := cgcsim.Corpus(synth.CorpusSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	var pinned *goldenFile
	updated := &goldenFile{Version: 1, Cells: make(map[string]goldenCell)}
	if !*updateGolden {
		pinned = loadGolden(t)
	}
	stacks, layouts, arbs := goldenStacks(), goldenLayouts(), goldenArbs()
	cells := 0
	for i, cb := range corpus {
		if i%stride != 0 {
			continue
		}
		input, err := cb.Bin.Marshal()
		if err != nil {
			t.Fatalf("%s: marshal: %v", cb.Name, err)
		}
		// Executing pollers dominates the suite's cost, so the original
		// binary's transcripts are measured lazily: only -update (which
		// pins fresh transcript digests) and drifted cells (which need a
		// behavioral verdict) pay for execution. A cell whose image
		// digest matches the pin cannot have drifted behaviorally — the
		// VM and pollers are deterministic functions of the image.
		var origTS []cgcsim.Transcript
		measureOrig := func() []cgcsim.Transcript {
			if origTS == nil {
				var err error
				_, origTS, err = cgcsim.MeasureArch(cb.Bin, nil, cb.Pollers, nil)
				if err != nil {
					t.Fatalf("%s: original execution: %v", cb.Name, err)
				}
			}
			return origTS
		}
		for _, stack := range stacks {
			for _, lay := range layouts {
				for _, ga := range arbs {
					key := goldenCellKey(cb.Name, stack.name, lay.name, ga.suffix)
					cfg := Config{Transforms: stack.tfs(), Layout: lay.layout, Seed: lay.seed, Arbitration: ga.arb}
					out, _, err := Rewrite(input, cfg)
					if err != nil {
						t.Errorf("%s: rewrite: %v", key, err)
						continue
					}
					imgSum := sha256.Sum256(out)
					imgHex := hex.EncodeToString(imgSum[:])
					cells++

					execute := func() (string, bool) {
						rw, err := binfmt.Unmarshal(out)
						if err != nil {
							t.Errorf("%s: unmarshal rewritten image: %v", key, err)
							return "", false
						}
						_, rwTS, err := cgcsim.MeasureArch(rw, nil, cb.Pollers, nil)
						if err != nil {
							t.Errorf("%s: rewritten execution: %v", key, err)
							return "", false
						}
						// Behavioral parity with the original is a
						// precondition for pinning: a golden file must never
						// freeze a broken transcript.
						if !cgcsim.Equivalent(measureOrig(), rwTS) {
							t.Errorf("%s: rewritten transcripts differ from the original binary", key)
							return "", false
						}
						return transcriptDigest(rwTS), true
					}

					if *updateGolden {
						td, ok := execute()
						if ok {
							updated.Cells[key] = goldenCell{Image: imgHex, Transcript: td}
						}
						continue
					}
					want, ok := pinned.Cells[key]
					if !ok {
						t.Errorf("%s: no pinned digests (new cell?); regenerate with -update", key)
						continue
					}
					if imgHex == want.Image {
						continue // identical bytes imply identical transcripts
					}
					// The image drifted: report whether behavior moved too —
					// a byte-only drift (same transcript digest) is a layout
					// change, a transcript drift is a correctness alarm.
					td, ok := execute()
					if !ok {
						continue
					}
					if td != want.Transcript {
						t.Errorf("%s: image AND execution transcript digests drifted\n  pinned image %s\n  got    image %s\n  pinned transcript %s\n  got    transcript %s",
							key, want.Image, imgHex, want.Transcript, td)
					} else {
						t.Errorf("%s: rewritten image digest drifted (transcripts unchanged)\n  pinned %s\n  got    %s", key, want.Image, imgHex)
					}
				}
			}
		}
	}
	wantCells := len(stacks) * len(layouts) * len(arbs) * ((len(corpus) + stride - 1) / stride)
	if cells != wantCells && !t.Failed() {
		t.Errorf("covered %d cells, want %d", cells, wantCells)
	}
	if *updateGolden {
		if t.Failed() {
			t.Fatal("not writing golden file: some cells failed")
		}
		raw, err := json.MarshalIndent(updated, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		raw = append(raw, '\n')
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		tmp := goldenPath + ".tmp"
		if err := os.WriteFile(tmp, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, goldenPath); err != nil {
			t.Fatal(err)
		}
		t.Logf("pinned %d cells to %s", len(updated.Cells), goldenPath)
	}
}

// TestGoldenFileComplete guards the pinned file itself: it must contain
// exactly the cells the current corpus and cell matrix define, so a
// stale file (after a corpus resize or a stack rename) fails loudly
// even when the strided run would not visit the missing cells.
func TestGoldenFileComplete(t *testing.T) {
	if *updateGolden {
		t.Skip("regenerating")
	}
	pinned := loadGolden(t)
	want := make(map[string]bool)
	for i := 0; i < synth.CorpusSize; i++ {
		_, profile := synth.CBProfile(i)
		for _, stack := range goldenStacks() {
			for _, lay := range goldenLayouts() {
				for _, ga := range goldenArbs() {
					want[goldenCellKey(profile.Name, stack.name, lay.name, ga.suffix)] = true
				}
			}
		}
	}
	for key := range want {
		if _, ok := pinned.Cells[key]; !ok {
			t.Errorf("cell %s missing from golden file; regenerate with -update", key)
		}
	}
	for key := range pinned.Cells {
		if !want[key] {
			t.Errorf("golden file pins unknown cell %s; regenerate with -update", key)
		}
	}
	if len(pinned.Cells) != len(want) {
		t.Errorf("golden file has %d cells, corpus defines %d", len(pinned.Cells), len(want))
	}
	// Digests are hex sha256: malformed entries mean a hand-edited file.
	for key, cell := range pinned.Cells {
		for _, d := range []string{cell.Image, cell.Transcript} {
			if len(d) != 64 {
				t.Errorf("cell %s: digest %q is not a sha256 hex string", key, d)
			} else if _, err := hex.DecodeString(d); err != nil {
				t.Errorf("cell %s: digest %q: %v", key, d, err)
			}
		}
	}
}

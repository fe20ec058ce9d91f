package zipr_test

// Pin-count benchmarks (ISSUE 9 arbitration bar): each benchmark
// rewrites the full synthetic corpus under one arbitration mode and
// reports the aggregate pin and sled counts as custom metrics, so the
// trajectory file records both sides of the three-way-arbitration
// contract and `make benchgate` can gate the ratio with
// benchjson -compare -metric pins: weighted arbitration must pin
// strictly less than the two-way baseline.

import (
	"sync"
	"testing"

	"zipr"
	"zipr/internal/cgcsim"
	"zipr/internal/synth"
)

var pinsCorpus struct {
	once sync.Once
	imgs [][]byte
	err  error
}

// pinsCorpusImages marshals (once) every corpus CB.
func pinsCorpusImages(b *testing.B) [][]byte {
	b.Helper()
	pinsCorpus.once.Do(func() {
		corpus, err := cgcsim.Corpus(synth.CorpusSize, nil)
		if err != nil {
			pinsCorpus.err = err
			return
		}
		for _, cb := range corpus {
			img, err := cb.Bin.Marshal()
			if err != nil {
				pinsCorpus.err = err
				return
			}
			pinsCorpus.imgs = append(pinsCorpus.imgs, img)
		}
	})
	if pinsCorpus.err != nil {
		b.Fatal(pinsCorpus.err)
	}
	return pinsCorpus.imgs
}

// benchCorpusPins rewrites the whole corpus under the given arbitration
// mode and reports aggregate pins and sleds.
func benchCorpusPins(b *testing.B, arb zipr.ArbitrationKind) {
	imgs := pinsCorpusImages(b)
	var pins, sleds int
	for i := 0; i < b.N; i++ {
		pins, sleds = 0, 0
		for _, img := range imgs {
			_, rep, err := zipr.Rewrite(img, zipr.Config{
				Transforms:  []zipr.Transform{zipr.Null()},
				Arbitration: arb,
			})
			if err != nil {
				b.Fatal(err)
			}
			pins += rep.Stats.Pinned
			sleds += rep.Stats.Sleds
		}
	}
	b.ReportMetric(float64(pins), "pins")
	b.ReportMetric(float64(sleds), "sleds")
}

func BenchmarkCorpusPinsTwoWay(b *testing.B) {
	benchCorpusPins(b, zipr.ArbitrationTwoWay)
}

func BenchmarkCorpusPinsWeighted(b *testing.B) {
	benchCorpusPins(b, zipr.ArbitrationWeighted)
}

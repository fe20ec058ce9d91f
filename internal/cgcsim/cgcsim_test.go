package cgcsim

import (
	"bytes"
	"errors"
	"testing"

	"zipr"
	"zipr/internal/binfmt"
	"zipr/internal/isa"
)

func rewriteNull(bin *binfmt.Binary) (*binfmt.Binary, error) {
	out, _, err := zipr.RewriteBinary(bin, zipr.Config{Transforms: []zipr.Transform{zipr.Null()}})
	return out, err
}

func rewriteCFI(bin *binfmt.Binary) (*binfmt.Binary, error) {
	out, _, err := zipr.RewriteBinary(bin, zipr.Config{Transforms: []zipr.Transform{zipr.CFI()}})
	return out, err
}

// TestCorpusDeterministic: two builds of the corpus agree, and a nil
// arch builds the ZVM-32 corpus.
func TestCorpusDeterministic(t *testing.T) {
	a, err := Corpus(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Corpus(3, isa.ZVM32)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		ab, _ := a[i].Bin.Marshal()
		bb, _ := b[i].Bin.Marshal()
		if !bytes.Equal(ab, bb) {
			t.Fatalf("cb%d differs between builds", i)
		}
		for p := range a[i].Pollers {
			if string(a[i].Pollers[p]) != string(b[i].Pollers[p]) {
				t.Fatalf("cb%d poller %d differs", i, p)
			}
		}
	}
}

func TestMeasureAndEquivalence(t *testing.T) {
	cbs, err := Corpus(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	cb := cbs[0]
	m, tr, err := MeasureArch(cb.Bin, nil, cb.Pollers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.FileSize == 0 || m.Steps == 0 || m.MaxRSSPages == 0 {
		t.Fatalf("metrics empty: %+v", m)
	}
	if len(tr) != len(cb.Pollers) {
		t.Fatalf("transcripts = %d", len(tr))
	}
	m2, tr2, err := MeasureArch(cb.Bin, nil, cb.Pollers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Steps != m2.Steps || !Equivalent(tr, tr2) {
		t.Fatal("measurement not deterministic")
	}
	// Different binaries must differ.
	_, trOther, err := MeasureArch(cbs[1].Bin, nil, cbs[1].Pollers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if Equivalent(tr, trOther) {
		t.Fatal("different CBs produced identical transcripts")
	}
	if Equivalent(tr, tr[:1]) {
		t.Fatal("length mismatch must not be equivalent")
	}
}

func TestOverheadMath(t *testing.T) {
	base := Metrics{FileSize: 100, Steps: 1000, MaxRSSPages: 10}
	other := Metrics{FileSize: 105, Steps: 1100, MaxRSSPages: 10}
	ov := Overhead(base, other)
	if ov.File != 5 || ov.Exec != 10 || ov.Mem != 0 {
		t.Fatalf("overheads = %+v", ov)
	}
	zero := Overhead(Metrics{}, other)
	if zero.File != 0 {
		t.Fatal("zero baseline must not divide by zero")
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram()
	for _, pct := range []float64{-1, 0, 0.1, 5, 5.1, 10.5, 20.5, 55, 1e9} {
		h.Add(pct)
	}
	want := []int{2, 2, 1, 1, 1, 2}
	for i := range want {
		if h.Counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", h.Counts, want)
		}
	}
}

func TestEvaluateNullTransformSample(t *testing.T) {
	cbs, err := Corpus(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := EvaluateParallel(cbs, rewriteNull, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Functional {
			t.Errorf("%s: null-transformed binary is not functionally equivalent", r.Name)
		}
		if r.Overheads.File > 20 {
			t.Errorf("%s: null file overhead %.1f%% exceeds the CGC threshold", r.Name, r.Overheads.File)
		}
	}
	s := Summarize(rows)
	if s.Functional != s.Total {
		t.Fatalf("functional %d/%d", s.Functional, s.Total)
	}
}

func TestEvaluateCFISample(t *testing.T) {
	cbs, err := Corpus(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := EvaluateParallel(cbs, rewriteCFI, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Functional {
			t.Errorf("%s: CFI binary is not functionally equivalent", r.Name)
		}
		if r.Overheads.Exec < 0 {
			t.Errorf("%s: CFI sped the program up (%.1f%%)?", r.Name, r.Overheads.Exec)
		}
	}
}

func TestEvaluatePropagatesErrors(t *testing.T) {
	cbs, err := Corpus(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	_, err = EvaluateParallel(cbs, func(*binfmt.Binary) (*binfmt.Binary, error) { return nil, boom }, 0)
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v", err)
	}
}

func TestSummarizeAverages(t *testing.T) {
	rows := []Row{
		{Overheads: Overheads{File: 2, Exec: 4, Mem: 6}, Functional: true},
		{Overheads: Overheads{File: 4, Exec: 8, Mem: 10}, Functional: false},
	}
	s := Summarize(rows)
	if s.AvgFile != 3 || s.AvgExec != 6 || s.AvgMem != 8 {
		t.Fatalf("averages = %+v", s)
	}
	if s.Functional != 1 || s.Total != 2 {
		t.Fatalf("functional = %d/%d", s.Functional, s.Total)
	}
	if empty := Summarize(nil); empty.Total != 0 {
		t.Fatal("empty summarize")
	}
}

package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1.5, 2.25, 9, 4}, 1.875, 4, 7},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestTailPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	if _, err := tailPercentile(xs, 95); err == nil {
		t.Error("p95 of 100 samples has 5 beyond it and must be refused")
	}
	v, err := tailPercentile(xs, 90)
	if err != nil {
		t.Fatalf("p90 of 100 samples has 10 beyond it: %v", err)
	}
	if v != 90 {
		t.Errorf("p90 = %v, want 90", v)
	}
	if _, err := tailPercentile(xs[:9], 50); err == nil {
		t.Error("any percentile of 9 samples has fewer than 10 beyond it")
	}
}

func TestClassify(t *testing.T) {
	base := []float64{100, 101, 99, 100.5, 99.5}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{80, 120, 95, 105, 100} // quartile spread 0.25
	for _, c := range []struct {
		name   string
		a, b   []float64
		bound  float64
		higher bool
		want   string
	}{
		{"same runs", base, base, 0.10, false, verdictUnchanged},
		{"within the bound", base, shift(base, 1.05), 0.10, false, verdictUnchanged},
		{"slower beyond the bound", base, shift(base, 1.2), 0.10, false, verdictWorse},
		{"faster beyond the bound", base, shift(base, 0.8), 0.10, false, verdictBetter},
		{"lower throughput is worse", base, shift(base, 0.8), 0.10, true, verdictWorse},
		{"spread wider than the bound", base, wide, 0.10, false, verdictUnresolved},
		{"wide but fully separated", wide, shift(wide, 2), 0.10, false, verdictWorse},
	} {
		if got := classify(c.a, c.b, c.bound, c.higher); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}

func TestClassifyPaired(t *testing.T) {
	run := func(seed int64, v float64) runVals {
		return runVals{seed: seed, vals: map[string]float64{"m": v}}
	}
	base := []runVals{run(1, 10), run(2, 12), run(3, 11)}
	for _, c := range []struct {
		name   string
		change []runVals
		bound  float64
		want   string
	}{
		{"same values", []runVals{run(1, 10), run(2, 12), run(3, 11)}, 0.1, verdictUnchanged},
		// The seeds differ by 2 points, but each moves by 0.05.
		{"within the bound on every seed", []runVals{run(3, 11.05), run(1, 10.05), run(2, 12.05)}, 0.1, verdictUnchanged},
		{"beyond the bound", []runVals{run(1, 10.2), run(2, 12.2), run(3, 11.2)}, 0.1, verdictWorse},
		{"below the bound", []runVals{run(1, 9.8), run(2, 11.8), run(3, 10.8)}, 0.1, verdictBetter},
		{"any rise with bound 0", []runVals{run(1, 10), run(2, 12), run(3, 11.3)}, 0, verdictWorse},
		{"any fall with bound 0", []runVals{run(1, 10), run(2, 11.7), run(3, 11)}, 0, verdictBetter},
		{"only seeds the base did not run", []runVals{run(4, 10), run(5, 10)}, 0.1, verdictUnresolved},
	} {
		if got := classifyPaired(pairedDeltas(base, c.change, "m"), c.bound); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}

package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"zipr"
	"zipr/internal/binfmt"
	"zipr/internal/cgcsim"
)

// pipelineSet is a pipeline workload after set-up: the inputs to time and
// the output zipr.Rewrite gave for each in the warm-up pass.
type pipelineSet struct {
	progs []*program
	refs  [][]byte // nil where the warm-up rewrite failed
	known []string
}

// setupPipeline generates the inputs and makes the warm-up pass: one
// zipr.Rewrite of each input, in input order, which also grows the heap
// to what the timed phase needs.
func setupPipeline(gen func(seed int64) ([]*program, error), seed int64) (*pipelineSet, error) {
	progs, err := gen(seed)
	if err != nil {
		return nil, err
	}
	freeMemory()
	set := &pipelineSet{}
	for _, p := range progs {
		out, _, err := zipr.Rewrite(p.img, p.cfg)
		if knownFailure(err) && len(set.known) < maxKnown {
			set.known = append(set.known, fmt.Sprintf("%s (%s): %v", p.name, p.arch.Name(), err))
			continue
		}
		set.progs = append(set.progs, p)
		set.refs = append(set.refs, out)
	}
	return set, nil
}

// timedPass is what the timed phase measured.
type timedPass struct {
	lat  []float64 // ms per successful op
	rss  []float64 // peak resident set of each pass, MiB
	ops  int
	wall time.Duration
	mem  memDelta
}

// timePipeline makes passes passes on this goroutine, each rewriting
// every input once in a seed-shuffled order. Every output must equal the
// warm-up output of its input.
func (s *pipelineSet) timePipeline(seed int64, passes int, t *tally) (timedPass, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x0DE5))
	order := make([]int, len(s.progs))
	for i := range order {
		order[i] = i
	}
	var tp timedPass
	if err := resetPeakRSS(); err != nil {
		return tp, err
	}
	m0 := readMem()
	start := time.Now()
	for pass := 0; pass < passes; pass++ {
		// Each pass's peak is read on its own: where one large rewrite
		// lands in the GC cycle moves a single peak by up to a quarter.
		if err := clearPeakRSS(); err != nil {
			return tp, err
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			p := s.progs[i]
			t0 := time.Now()
			out, _, err := zipr.Rewrite(p.img, p.cfg)
			d := time.Since(t0)
			tp.ops++
			t.attempted++
			if err != nil {
				t.fail(errClass(err), p.name+": "+err.Error())
				continue
			}
			tp.lat = append(tp.lat, ms(d))
			switch {
			case s.refs[i] == nil:
				s.refs[i] = out
			case !bytes.Equal(out, s.refs[i]):
				t.fail("nondeterministic", p.name+": output differs from the warm-up rewrite")
			}
		}
		rss, err := peakRSSMB()
		if err != nil {
			return tp, err
		}
		tp.rss = append(tp.rss, rss)
	}
	tp.wall = time.Since(start)
	tp.mem = readMem().since(m0)
	return tp, nil
}

// quality holds the CGC overhead samples of a verification, in percent.
type quality struct {
	size, exec, mem []float64
}

func pct(base, other float64) float64 { return (other - base) / base * 100 }

// check runs one rewritten output against its original: the transcripts
// of every verification run must match, and each run contributes its
// execution and memory overhead.
func (q *quality) check(p *program, out []byte, t *tally) error {
	rbin, err := binfmt.Unmarshal(out)
	if err != nil {
		t.fail("format", p.name+": rewritten image does not parse: "+err.Error())
		return nil
	}
	m0, t0, err := p.measure(p.bin)
	if err != nil {
		return fmt.Errorf("original %s does not run: %w", p.name, err)
	}
	m1, t1, err := p.measure(rbin)
	if err != nil {
		t.fail("transcript", p.name+": rewritten program faults: "+err.Error())
		return nil
	}
	for r := range m0 {
		if !cgcsim.Equivalent(t0[r], t1[r]) {
			t.fail("transcript", fmt.Sprintf("%s: run %d transcript differs from the original", p.name, r))
			continue
		}
		q.exec = append(q.exec, pct(float64(m0[r].Steps), float64(m1[r].Steps)))
		q.mem = append(q.mem, pct(float64(m0[r].MaxRSSPages), float64(m1[r].MaxRSSPages)))
	}
	return nil
}

// verify runs every distinct output of the timed phase once.
func (s *pipelineSet) verify(t *tally) (quality, error) {
	var q quality
	for i, p := range s.progs {
		if s.refs[i] == nil {
			continue
		}
		q.size = append(q.size, pct(float64(len(p.img)), float64(len(s.refs[i]))))
		if err := q.check(p, s.refs[i], t); err != nil {
			return q, err
		}
	}
	return q, nil
}

// runPipeline is the untraced run of a pipeline workload.
func runPipeline(o options, gen func(seed int64) ([]*program, error), res *result) (map[string]float64, error) {
	var set *pipelineSet
	setups, err := repeatSetup(res, func() { set = nil }, func() (err error) {
		set, err = setupPipeline(gen, o.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.Known = set.known
	res.Skipped = len(set.known) * o.length
	if len(set.progs) == 0 {
		return nil, fmt.Errorf("no inputs left to time")
	}
	var t tally
	tp, err := set.timePipeline(o.seed, o.length, &t)
	if err != nil {
		return nil, err
	}
	res.Phases["timed"] = tp.wall.Seconds()
	t1 := time.Now()
	q, err := set.verify(&t)
	if err != nil {
		return nil, err
	}
	res.Phases["verify"] = time.Since(t1).Seconds()
	res.setTally(&t)
	if len(tp.lat) == 0 || len(q.exec) == 0 {
		return nil, fmt.Errorf("every operation failed: %v", t.problems)
	}
	vals := map[string]float64{
		"latency_ms_p50":    median(tp.lat),
		"ops_per_s":         float64(len(tp.lat)) / tp.wall.Seconds(),
		"alloc_mb_per_op":   mb(tp.mem.alloc) / float64(tp.ops),
		"max_rss_mb":        median(tp.rss),
		"size_overhead_pct": mean(q.size),
		"exec_overhead_pct": mean(q.exec),
		"mem_overhead_pct":  mean(q.mem),
		"setup_s":           median(setups),
	}
	res.addLatencyExtras(tp.lat)
	res.Extra["inputs"] = metric{float64(len(set.progs)), "count"}
	res.Extra["go.gc_count_per_op"] = metric{float64(tp.mem.gcs) / float64(tp.ops), "count"}
	res.Extra["go.gc_pause_ms_per_op"] = metric{ms(tp.mem.pause) / float64(tp.ops), "ms"}
	return vals, nil
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"zipr"
	"zipr/internal/isa"
	"zipr/internal/serve"
)

// replayReq is one request of a traced replay through a server.
type replayReq struct {
	name string
	img  func() []byte
	cfg  zipr.Config
	isa  string
	edit bool
}

// tierStats groups a replay's server-side request walls (RequestMeta.Wall)
// by the tier that answered.
type tierStats struct {
	wall   map[string][]float64 // ms, every phase
	count  map[string]int       // answers in the main phase
	total  int                  // main-phase answers
	edits  []float64            // ms of edit requests
	editBy map[string]int       // edit requests by ISA
	deltaB map[string]int       // edit requests the delta path answered, by ISA
	snapMB float64              // snapshot store occupancy after the main phase
}

func newTierStats() *tierStats {
	return &tierStats{wall: map[string][]float64{}, count: map[string]int{},
		editBy: map[string]int{}, deltaB: map[string]int{}}
}

// replay sends reqs to srv from clients closed-loop clients. Main-phase
// answers count toward the tier shares; restart-phase ones only add
// latency samples.
func replay(srv *serve.Server, reqs []replayReq, clients int, main bool, ts *tierStats, t *tally) {
	type rec struct {
		r    replayReq
		meta serve.RequestMeta
		err  error
	}
	recs := make([]rec, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				_, _, meta, err := srv.RewriteMeta(context.Background(), reqs[i].img(), reqs[i].cfg)
				recs[i] = rec{reqs[i], meta, err}
			}
		}()
	}
	wg.Wait()
	for _, x := range recs {
		if knownFailure(x.err) {
			continue
		}
		t.attempted++
		if x.err != nil {
			t.fail("serve-"+errClass(x.err), x.r.name+": "+x.err.Error())
			continue
		}
		tier := tierOf(x.meta)
		ts.wall[tier] = append(ts.wall[tier], ms(x.meta.Wall))
		if !main {
			continue
		}
		ts.count[tier]++
		ts.total++
		if x.r.edit {
			ts.edits = append(ts.edits, ms(x.meta.Wall))
			ts.editBy[x.r.isa]++
			if tier == "delta" {
				ts.deltaB[x.r.isa]++
			}
		}
	}
}

// vals turns the replay into the serve layer's metrics. A tier the
// replay never reached is an error: the replays are built so that every
// tier answers.
func (ts *tierStats) vals(extra map[string]metric) (map[string]float64, error) {
	v := map[string]float64{"serve.snapshot.mb": ts.snapMB}
	for _, tier := range []string{"ram", "disk", "pipeline"} {
		if len(ts.wall[tier]) == 0 {
			return nil, fmt.Errorf("traced replay: no request answered from the %s tier", tier)
		}
		v["serve."+tier+".ms_p50"] = median(ts.wall[tier])
	}
	if len(ts.edits) == 0 {
		return nil, fmt.Errorf("traced replay: no edit requests")
	}
	v["serve.edit.ms_p50"] = median(ts.edits)
	for _, tier := range []string{"ram", "disk", "delta", "pipeline"} {
		v["serve."+tier+".share"] = float64(ts.count[tier]) / float64(ts.total)
	}
	var edits, deltas int
	for isaName, n := range ts.editBy {
		edits += n
		deltas += ts.deltaB[isaName]
		extra["serve.delta.hit_ratio."+isaName] = metric{float64(ts.deltaB[isaName]) / float64(n), "ratio"}
	}
	v["serve.delta.hit_ratio"] = float64(deltas) / float64(edits)
	if d := ts.wall["delta"]; len(d) > 0 {
		extra["serve.delta.ms_p50"] = metric{median(d), "ms"}
	}
	return v, nil
}

// scriptRequests is a pipeline workload's replay: each input, the same
// input again, and a one-function edit of it (an edit class the delta
// path serves), then after a restart each input once more, which the
// disk tier answers.
func scriptRequests(progs []*program, seed int64) (main, restart []replayReq, err error) {
	for i, p := range progs {
		p := p
		img := func() []byte { return p.img }
		base := replayReq{name: p.name, img: img, cfg: p.cfg, isa: p.arch.Name()}
		main = append(main, base, base)
		restart = append(restart, base)
		if p.source == nil {
			continue
		}
		eimg, sites, err := assembleWithSites(p.source(), p.arch)
		if err != nil {
			return nil, nil, err
		}
		if !bytes.Equal(eimg, p.img) {
			return nil, nil, fmt.Errorf("%s: regenerated image differs from the generated one", p.name)
		}
		apply(eimg, sites.mutate(seed+int64(i)))
		main = append(main, replayReq{name: p.name + "+edit", img: func() []byte { return eimg },
			cfg: p.cfg, isa: p.arch.Name(), edit: true})
	}
	return main, restart, nil
}

// replayScript runs a pipeline workload's scripted replay from one
// client against a fresh server with a disk tier.
func replayScript(main, restart []replayReq, t *tally, extra map[string]metric) (map[string]float64, error) {
	dir, err := os.MkdirTemp("", "zbench-disk-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ts := newTierStats()
	for phase, reqs := range [][]replayReq{main, restart} {
		disk, err := serve.OpenDiskTier(dir, diskBudget)
		if err != nil {
			return nil, err
		}
		srv := serve.New(serve.Options{Workers: serveWorkers, Disk: disk})
		replay(srv, reqs, 1, phase == 0, ts, t)
		if phase == 0 {
			ts.snapMB = mb(uint64(srv.Stats().SnapBytes))
		}
		srv.Close()
		disk.Close()
	}
	return ts.vals(extra)
}

// replayReq is r as a replay request.
func (s *serveSet) replayReq(r request) replayReq {
	var cfg zipr.Config
	var arch isa.Arch
	if r.fam >= 0 {
		cfg, arch = s.fams[r.fam].cfg, s.fams[r.fam].arch
	} else {
		cfg, arch = s.novel[r.prog].cfg, s.novel[r.prog].arch
	}
	return replayReq{name: s.name(r), cfg: cfg, isa: arch.Name(), edit: r.edit,
		img: func() []byte { img, _, _ := s.input(r); return img }}
}

// traceServe is the traced serve-edits run: it replays the stream with
// the same two clients and groups the server's request walls
// by tier, restarts the server over the same disk tier and asks for each
// family's last version again, then makes the composed passes over the
// inputs that reach the pipeline (each family's base and a few
// never-seen programs).
func traceServe(o options, res *result) (map[string]float64, error) {
	t0 := time.Now()
	st, err := setupServe(o)
	if err != nil {
		return nil, err
	}
	defer st.close()
	res.Phases["setup"] = time.Since(t0).Seconds()
	res.Known = st.known
	set := st.set

	var t tally
	var main, restart []replayReq
	final := map[int]int{}
	for _, r := range set.reqs {
		if r.fam >= 0 && set.fams[r.fam].skip {
			continue
		}
		main = append(main, set.replayReq(r))
		if r.fam >= 0 {
			final[r.fam] = r.ver
		}
	}
	for f := range set.fams {
		if v, ok := final[f]; ok {
			restart = append(restart, set.replayReq(request{fam: f, ver: v}))
		}
	}

	t1 := time.Now()
	ts := newTierStats()
	replay(st.srv, main, serveClients, true, ts, &t)
	ts.snapMB = mb(uint64(st.srv.Stats().SnapBytes))
	st.closeServer()
	if err := st.openServer(); err != nil {
		return nil, err
	}
	replay(st.srv, restart, serveClients, false, ts, &t)
	vals, err := ts.vals(res.Extra)
	if err != nil {
		return nil, err
	}
	res.Phases["replay"] = time.Since(t1).Seconds()

	var inputs []traceInput
	add := func(name string, img []byte, cfg zipr.Config) {
		ref, _, err := zipr.Rewrite(img, cfg)
		switch {
		case err == nil:
			inputs = append(inputs, traceInput{name, img, cfg, ref})
		case !knownFailure(err):
			t.fail(errClass(err), name+": "+err.Error())
		}
	}
	for _, f := range set.fams {
		if !f.skip {
			add(f.name, f.base, f.cfg)
		}
	}
	for _, p := range set.novel[:min(len(set.novel), traceNovel)] {
		add(p.name, p.img, p.cfg)
	}
	t2 := time.Now()
	lv, err := layerPasses(inputs, 1, &t)
	if err != nil {
		return nil, err
	}
	res.Phases["passes"] = time.Since(t2).Seconds()
	for k, v := range lv {
		vals[k] = v
	}
	res.setTally(&t)
	return vals, nil
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"zipr"
	"zipr/internal/binfmt"
	"zipr/internal/cgcsim"
	"zipr/internal/isa"
	"zipr/internal/par"
	"zipr/internal/serve"
	"zipr/internal/synth"
)

// The serve-edits mix. Two closed-loop clients share one server with two
// pipeline workers, so admission never queues and no request is refused
// for load; what varies is which tier answers.
const (
	serveClients = 2
	serveWorkers = 2
	smallZVM32   = 24 // CB families 0..23 on ZVM-32
	smallZVM64   = 8  // CB families 24..31 on ZVM-64
	// A block of the stream: 10 % never-seen programs, 4 % the large
	// family, the rest the small families; a third of the family
	// requests edit one function (30 % of all requests), the rest repeat
	// the family's current version.
	blockNovel = 15
	blockLarge = 6
	blockSmall = 129
	// serveCheckExtra distinct inputs beyond each family's final version
	// are checked against a cold rewrite after the run.
	serveCheckExtra = 16
	// traceNovel never-seen programs join the traced run's composed passes.
	traceNovel = 16
	diskBudget = 256 << 20
	// snapshotBudget holds the delta ancestry of every family for longer
	// than the stream goes between two large-family edits (at most two
	// blocks, about 90 small-family snapshots of under 1 MB). With the
	// 32 MB default, small-family churn evicts the large family's
	// snapshot at some seeds and not others, and each eviction turns an
	// 80 ms delta into a 2 s pipeline run.
	snapshotBudget = 128 << 20
)

// largeProfile is the 12 000-function delta-stress program: big enough
// that a full rewrite takes seconds, with no handwritten code, so every
// function's constants are delta-editable.
func largeProfile() (int64, synth.Profile) {
	return 0xDE15A, synth.Profile{
		Name: "dstress", NumFuncs: 12000, OpsMin: 5, OpsMax: 12,
		FuncPtrTableFrac: 0.3, DataWords: 2048, InputLen: 8, LoopIters: 4,
	}
}

// family is one program the stream keeps requesting and editing.
type family struct {
	name  string
	arch  isa.Arch
	cfg   zipr.Config
	base  []byte
	sites *editSites
	edits [][]siteWrite // edits[k-1] turns version k-1 into version k
	stdin []byte        // verification input
	large bool
	skip  bool // the known defect fails its base: its requests are not sent

	mu  sync.Mutex
	ver int
	img []byte
}

// image returns version ver of the family's program. It keeps the last
// version it built, which is what repeats ask for.
func (f *family) image(ver int) []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.img == nil || f.ver != ver {
		img := append([]byte(nil), f.base...)
		for _, w := range f.edits[:ver] {
			apply(img, w)
		}
		f.ver, f.img = ver, img
	}
	return f.img
}

// request is one request of the stream.
type request struct {
	fam  int // family index, or -1 for a never-seen program
	ver  int // family version
	prog int // never-seen program index when fam < 0
	edit bool
}

// serveSet is the generated serve-edits workload.
type serveSet struct {
	fams       []*family
	novel      []*program
	reqs       []request
	cacheBytes int64
}

func (s *serveSet) input(r request) ([]byte, zipr.Config, isa.Arch) {
	if r.fam < 0 {
		p := s.novel[r.prog]
		return p.img, p.cfg, p.arch
	}
	f := s.fams[r.fam]
	return f.image(r.ver), f.cfg, f.arch
}

func (s *serveSet) name(r request) string {
	if r.fam < 0 {
		return s.novel[r.prog].name
	}
	return fmt.Sprintf("%s@v%d", s.fams[r.fam].name, r.ver)
}

// novelProfile draws a small never-seen program: a few dozen functions
// at most, on ZVM-64 one time in four.
func novelProfile(k int, rng *rand.Rand) (int64, synth.Profile, isa.Arch) {
	p := synth.Profile{
		Name: fmt.Sprintf("nv%d", k), NumFuncs: 6 + rng.Intn(19), OpsMin: 4, OpsMax: 12,
		HandwrittenFrac: 0.1, FuncPtrTableFrac: 0.15, DataWords: 64 + rng.Intn(192),
		InputLen: 16, LoopIters: 8 + rng.Intn(24), HeapPages: rng.Intn(4),
	}
	arch := isa.ZVM32
	if rng.Intn(4) == 0 {
		arch = isa.ZVM64
	}
	return rng.Int63(), p, arch
}

// genServe builds the families, a stream of n requests and the
// never-seen programs the stream sends.
func genServe(seed int64, n int) (*serveSet, error) {
	rng := rand.New(rand.NewSource(seed))
	fams, err := buildFamilies(seed, rng)
	if err != nil {
		return nil, err
	}
	set := &serveSet{fams: fams}
	novel := set.genStream(rng, n)
	set.novel, err = buildAll(len(novel), func(k int) (*program, error) {
		ns := novel[k]
		bin, err := synth.BuildArch(ns.seed, ns.p, ns.arch)
		if err != nil {
			return nil, err
		}
		img, err := bin.Marshal()
		if err != nil {
			return nil, err
		}
		return &program{name: ns.p.Name + "/" + ns.arch.Name(), arch: ns.arch, img: img, cfg: corpusCfg(ns.arch)}, nil
	})
	if err != nil {
		return nil, err
	}
	// The RAM cache holds about a quarter of the outputs the stream keeps
	// asking for, one current version per family (outputs run about a
	// tenth larger than their inputs), so repeats split between the RAM
	// and the disk tier.
	var live int64
	for _, f := range fams {
		live += int64(len(f.base))
	}
	set.cacheBytes = live * 11 / 10 / 4
	return set, nil
}

// buildFamilies builds the CB families and, last, the large family.
func buildFamilies(seed int64, rng *rand.Rand) ([]*family, error) {
	type spec struct {
		seed  int64
		p     synth.Profile
		arch  isa.Arch
		cfg   zipr.Config
		pick  int
		large bool
	}
	var specs []spec
	for i := 0; i < smallZVM32+smallZVM64; i++ {
		arch := isa.ZVM32
		if i >= smallZVM32 {
			arch = isa.ZVM64
		}
		s, p := cbSeed(i, seed)
		specs = append(specs, spec{s, p, arch, corpusCfg(arch), rng.Intn(cgcsim.PollersPerCB), false})
	}
	ls, lp := largeProfile()
	specs = append(specs, spec{ls ^ seed, lp, isa.ZVM32,
		zipr.Config{Transforms: []zipr.Transform{zipr.Null()}, Layout: zipr.LayoutOptimized}, 0, true})

	// The large family takes as long to assemble as all the others
	// together, so it starts first and the small ones share the other CPU.
	fams := make([]*family, len(specs))
	err := par.Each(par.Workers(0, len(specs)), len(specs), func(k int) error {
		i := (k + len(specs) - 1) % len(specs)
		sp := specs[i]
		img, sites, err := assembleWithSites(synth.GenerateArch(sp.seed, sp.p, sp.arch), sp.arch)
		if err != nil {
			return fmt.Errorf("family %s: %w", sp.p.Name, err)
		}
		fams[i] = &family{
			name: sp.p.Name + "/" + sp.arch.Name(), arch: sp.arch, cfg: sp.cfg, base: img, sites: sites,
			stdin: pollerPrefix(sp.seed, sp.p.InputLen, sp.pick), large: sp.large,
		}
		return nil
	})
	return fams, err
}

// novelSpec is how to build one never-seen program.
type novelSpec struct {
	seed int64
	p    synth.Profile
	arch isa.Arch
}

// genStream appends n requests to s.reqs, recording each family edit it
// draws, and returns the never-seen programs the requests name. The last
// family is the large one. The stream is made of blocks of blockNovel +
// blockLarge + blockSmall requests, each holding the mix's exact shares
// in a seed-shuffled order, and small-family requests cycle through
// seed-shuffled rounds of all families, so seeds change which programs
// and edits a run sees but not how much of each kind of work it asks for.
func (s *serveSet) genStream(rng *rand.Rand, n int) []novelSpec {
	large := len(s.fams) - 1
	var novel []novelSpec
	var smallQueue []int
	for len(s.reqs) < n {
		var block []request
		for k := 0; k < blockNovel; k++ {
			ns, p, arch := novelProfile(len(novel), rng)
			block = append(block, request{fam: -1, prog: len(novel)})
			novel = append(novel, novelSpec{ns, p, arch})
		}
		for k := 0; k < blockLarge; k++ {
			block = append(block, request{fam: large, edit: k < blockLarge/3})
		}
		for k := 0; k < blockSmall; k++ {
			if len(smallQueue) == 0 {
				smallQueue = rng.Perm(large)
			}
			block = append(block, request{fam: smallQueue[0], edit: k < blockSmall/3})
			smallQueue = smallQueue[1:]
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, r := range block {
			if len(s.reqs) == n {
				break
			}
			if r.fam >= 0 {
				f := s.fams[r.fam]
				if r.edit {
					w := f.sites.mutate(rng.Int63())
					r.edit = w != nil
					if r.edit {
						f.edits = append(f.edits, w)
					}
				}
				r.ver = len(f.edits)
			}
			s.reqs = append(s.reqs, r)
		}
	}
	return novel
}

// serveState is a set-up serve-edits workload: the stream and a server
// with a disk tier, the large family already primed.
type serveState struct {
	set   *serveSet
	dir   string
	disk  *serve.DiskTier
	srv   *serve.Server
	known []string
}

func (st *serveState) openServer() error {
	disk, err := serve.OpenDiskTier(st.dir, diskBudget)
	if err != nil {
		return err
	}
	st.disk = disk
	st.srv = serve.New(serve.Options{Workers: serveWorkers, CacheBytes: st.set.cacheBytes,
		SnapshotBytes: snapshotBudget, Disk: disk})
	return nil
}

func (st *serveState) closeServer() {
	if st.srv != nil {
		st.srv.Close()
		st.srv = nil
	}
	if st.disk != nil {
		st.disk.Close()
		st.disk = nil
	}
}

func (st *serveState) close() {
	st.closeServer()
	if st.dir != "" {
		os.RemoveAll(st.dir)
	}
}

// setupServe generates the stream, opens the disk tier and the server,
// and primes every family: the large one first, so its edits can take
// the delta path, then the warm-up pass over each small family's base,
// which also finds bases the known defect fails. The timed phase so
// starts from a server that has seen every family once.
func setupServe(o options) (*serveState, error) {
	set, err := genServe(o.seed, o.length)
	if err != nil {
		return nil, err
	}
	freeMemory()
	st := &serveState{set: set}
	if st.dir, err = os.MkdirTemp("", "zbench-disk-"); err != nil {
		return nil, err
	}
	if err := st.openServer(); err != nil {
		st.close()
		return nil, err
	}
	lf := set.fams[len(set.fams)-1]
	_, _, meta, err := st.srv.RewriteMeta(context.Background(), lf.image(0), lf.cfg)
	if err != nil || meta.Outcome != serve.OutcomeMiss {
		st.close()
		return nil, fmt.Errorf("priming %s: outcome %s: %v", lf.name, meta.Outcome, err)
	}
	// The cold rewrite of the large family peaks far above the steady
	// state; give those pages back before the warm-up sets the baseline.
	freeMemory()
	for _, f := range set.fams {
		if f.large {
			continue
		}
		_, _, _, err := st.srv.RewriteMeta(context.Background(), f.image(0), f.cfg)
		if knownFailure(err) && len(st.known) < maxKnown {
			f.skip = true
			st.known = append(st.known, fmt.Sprintf("%s: %v", f.name, err))
		}
	}
	return st, nil
}

// answer is one request's result as its client saw it.
type answer struct {
	idx    int
	lat    time.Duration
	meta   serve.RequestMeta
	outLen int
	err    error
}

// drive sends the whole stream from serveClients closed-loop clients and
// returns the answers in stream order plus how many requests of skipped
// families were not sent.
func (st *serveState) drive() ([]answer, int) {
	var next atomic.Int64
	var skipped atomic.Int64
	per := make([][]answer, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(st.set.reqs) {
					return
				}
				r := st.set.reqs[i]
				if r.fam >= 0 && st.set.fams[r.fam].skip {
					skipped.Add(1)
					continue
				}
				img, cfg, _ := st.set.input(r)
				t0 := time.Now()
				out, _, meta, err := st.srv.RewriteMeta(ctx, img, cfg)
				per[c] = append(per[c], answer{i, time.Since(t0), meta, len(out), err})
			}
		}(c)
	}
	wg.Wait()
	var all []answer
	for _, a := range per {
		all = append(all, a...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].idx < all[j].idx })
	return all, int(skipped.Load())
}

// tierOf names the tier that answered a request.
func tierOf(m serve.RequestMeta) string {
	switch m.Outcome {
	case serve.OutcomeHit:
		if m.Tier == serve.TierDisk {
			return "disk"
		}
		return "ram"
	case serve.OutcomeDelta:
		return "delta"
	case serve.OutcomeMiss:
		return "pipeline"
	}
	return m.Outcome
}

// account counts answers and returns how many it set aside: failures
// with the known defect, of up to maxKnown distinct inputs together with
// the families set-up already skipped. Every other error fails the
// request.
func (st *serveState) account(ans []answer, t *tally, known map[string]bool) int {
	aside := 0
	for _, a := range ans {
		if a.err == nil {
			t.attempted++
			continue
		}
		name := st.set.name(st.set.reqs[a.idx])
		if knownFailure(a.err) && (known[name] || len(known)+len(st.known) < maxKnown) {
			known[name] = true
			aside++
			continue
		}
		t.attempted++
		class := errClass(a.err)
		if a.meta.Outcome == serve.OutcomeBusy {
			class = "busy"
		}
		t.fail(class, name+": "+a.err.Error())
	}
	return aside
}

type inputKey struct{ fam, ver, prog int }

func keyOf(r request) inputKey {
	if r.fam < 0 {
		return inputKey{-1, 0, r.prog}
	}
	return inputKey{r.fam, r.ver, -1}
}

// verifyServe checks the served outputs after the run: each family's
// last version the run sent, plus serveCheckExtra seed-chosen distinct
// inputs, must be served byte-identical to a cold zipr.Rewrite, and the
// family versions must keep their original's transcript. It returns the
// overheads: size over every distinct served output, execution and
// memory over the family versions.
func (st *serveState) verifyServe(ans []answer, seed int64, t *tally) (quality, error) {
	set := st.set
	var q quality
	seen := map[inputKey]bool{}
	final := map[int]int{}
	var keys []inputKey
	for _, a := range ans {
		if a.err != nil {
			continue
		}
		r := set.reqs[a.idx]
		k := keyOf(r)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
			img, _, _ := set.input(r)
			q.size = append(q.size, pct(float64(len(img)), float64(a.outLen)))
		}
		if r.fam >= 0 && r.ver >= final[r.fam] {
			final[r.fam] = r.ver
		}
	}
	var checks []inputKey
	isFinal := map[inputKey]bool{}
	for f := range set.fams {
		if v, ok := final[f]; ok {
			k := inputKey{f, v, -1}
			checks = append(checks, k)
			isFinal[k] = true
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0xC4EC))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys {
		if len(checks) >= len(isFinal)+serveCheckExtra {
			break
		}
		if !isFinal[k] {
			checks = append(checks, k)
		}
	}
	ctx := context.Background()
	for _, k := range checks {
		r := request{fam: k.fam, ver: k.ver, prog: k.prog}
		name := set.name(r)
		img, cfg, arch := set.input(r)
		served, _, _, err := st.srv.RewriteMeta(ctx, img, cfg)
		if err != nil {
			t.fail(errClass(err), name+": re-request failed: "+err.Error())
			continue
		}
		cold, _, err := zipr.Rewrite(img, cfg)
		if err != nil {
			t.fail("cold-"+errClass(err), name+": "+err.Error())
			continue
		}
		if !bytes.Equal(served, cold) {
			t.fail("served-mismatch", name+": served output differs from a cold zipr.Rewrite")
			continue
		}
		if !isFinal[k] {
			continue
		}
		f := set.fams[k.fam]
		orig, err := binfmt.Unmarshal(img)
		if err != nil {
			return q, err
		}
		p := &program{name: name, arch: arch, img: img, bin: orig, runs: []vmRun{{stdin: f.stdin}}}
		if err := q.check(p, served, t); err != nil {
			return q, err
		}
	}
	return q, nil
}

// runServe is the untraced serve-edits run.
func runServe(o options, res *result) (map[string]float64, error) {
	var st *serveState
	drop := func() {
		if st != nil {
			st.close()
			st = nil
		}
	}
	defer drop()
	setups, err := repeatSetup(res, drop, func() (err error) {
		st, err = setupServe(o)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.Known = st.known
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	m0 := readMem()
	start := time.Now()
	ans, skipped := st.drive()
	wall := time.Since(start)
	mem := readMem().since(m0)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.Phases["timed"] = wall.Seconds()

	var t tally
	known := map[string]bool{}
	res.Skipped = skipped + st.account(ans, &t, known)
	var names []string
	for k := range known {
		names = append(names, k+": cfi target table overflow")
	}
	sort.Strings(names)
	res.Known = append(res.Known, names...)
	t1 := time.Now()
	q, err := st.verifyServe(ans, o.seed, &t)
	if err != nil {
		return nil, err
	}
	res.Phases["verify"] = time.Since(t1).Seconds()
	res.setTally(&t)

	var lat []float64
	byTier := map[string][]float64{}
	for _, a := range ans {
		if a.err != nil {
			continue
		}
		tier := tierOf(a.meta)
		lat = append(lat, ms(a.lat))
		byTier[tier] = append(byTier[tier], ms(a.lat))
		if r := st.set.reqs[a.idx]; r.fam >= 0 && st.set.fams[r.fam].large {
			byTier["large-"+tier] = append(byTier["large-"+tier], ms(a.lat))
		}
	}
	if len(lat) == 0 || len(q.exec) == 0 {
		return nil, fmt.Errorf("every request failed: %v", t.problems)
	}
	vals := map[string]float64{
		"latency_ms_p50":    median(lat),
		"ops_per_s":         float64(len(lat)) / wall.Seconds(),
		"alloc_mb_per_op":   mb(mem.alloc) / float64(len(ans)),
		"max_rss_mb":        rss,
		"size_overhead_pct": mean(q.size),
		"exec_overhead_pct": mean(q.exec),
		"mem_overhead_pct":  mean(q.mem),
		"setup_s":           median(setups),
	}
	res.addLatencyExtras(lat)
	for tier, ls := range byTier {
		res.Extra["serve."+tier+".share"] = metric{float64(len(ls)) / float64(len(lat)), "ratio"}
		res.Extra["serve."+tier+".samples"] = metric{float64(len(ls)), "count"}
		res.Extra["serve."+tier+".ms_p50"] = metric{median(ls), "ms"}
		if v, err := tailPercentile(ls, 95); err == nil {
			res.Extra["serve."+tier+".ms_p95"] = metric{v, "ms"}
		}
	}
	return vals, nil
}

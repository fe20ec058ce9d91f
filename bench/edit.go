package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"

	"zipr/internal/asm"
	"zipr/internal/isa"
)

// These mirror internal/synth/mutate.go: the edit class the delta path
// serves is "the `movi r2, N` constants of one generated function change".
var (
	funcLabelRe = regexp.MustCompile(`^\w+_f\d+:$`)
	moviConstRe = regexp.MustCompile(`^(    movi r2, )(\d+)$`)
)

// editSites are the image offsets of the imm32 fields synth.MutateConsts
// edits, grouped by function in source order, with their current values.
// Re-assembling a 12 000-function program per edit costs over a second;
// patching the image costs a copy, so the serve stream can carry hundreds
// of edits. TestEditMatchesMutateConsts checks the two agree byte for byte.
type editSites struct {
	offs [][]int
	vals [][]int
}

// siteWrite sets the imm32 at off to val.
type siteWrite struct{ off, val int }

// sentinelBase is added to a site's index to form its sentinel.
const sentinelBase = 0x5E000000

// assembleWithSites assembles src for arch and locates its edit sites.
// It assembles once, with every mutable constant replaced by a distinct
// sentinel: movi always encodes a full imm32, so the sentinels move no
// byte. Sites sit in text in source order, so each sentinel is searched
// for just past the previous one, where no other bytes can pose as it.
// The returned image has the original constants written back and is the
// image asm.AssembleArch(src, arch) produces.
func assembleWithSites(src string, arch isa.Arch) ([]byte, *editSites, error) {
	lines := strings.Split(src, "\n")
	es := &editSites{}
	var vals []int
	fn, lastFn := -1, -1
	for i, line := range lines {
		if funcLabelRe.MatchString(line) {
			fn++
			continue
		}
		m := moviConstRe.FindStringSubmatch(line)
		if fn < 0 || m == nil {
			continue
		}
		v, err := strconv.Atoi(m[2])
		if err != nil {
			return nil, nil, fmt.Errorf("edit site %q: %w", line, err)
		}
		if fn != lastFn {
			es.offs = append(es.offs, nil)
			es.vals = append(es.vals, nil)
			lastFn = fn
		}
		f := len(es.offs) - 1
		es.offs[f] = append(es.offs[f], len(vals)) // site index until located
		es.vals[f] = append(es.vals[f], v)
		lines[i] = m[1] + strconv.Itoa(sentinelBase+len(vals))
		vals = append(vals, v)
	}
	bin, err := asm.AssembleArch(strings.Join(lines, "\n"), arch)
	if err != nil {
		return nil, nil, err
	}
	img, err := bin.Marshal()
	if err != nil {
		return nil, nil, err
	}
	offs := make([]int, len(vals))
	from := 0
	for k, v := range vals {
		var pat [4]byte
		binary.LittleEndian.PutUint32(pat[:], uint32(sentinelBase+k))
		i := bytes.Index(img[from:], pat[:])
		if i < 0 {
			return nil, nil, fmt.Errorf("edit sites: sentinel %d not found", k)
		}
		offs[k] = from + i
		binary.LittleEndian.PutUint32(img[offs[k]:], uint32(v))
		from = offs[k] + 4
	}
	for _, fo := range es.offs {
		for j, k := range fo {
			fo[j] = offs[k]
		}
	}
	return img, es, nil
}

// mutate is synth.MutateConsts(src, seed, 1) on the image: it draws the
// same function and the same values from the same rng sequence, updates
// the current values, and returns the writes that turn the previous
// version's image into the new one. It returns nil when no function has
// a mutable constant.
func (e *editSites) mutate(seed int64) []siteWrite {
	if len(e.offs) == 0 {
		return nil
	}
	order := make([]int, len(e.offs))
	for i := range order {
		order[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	f := order[0]
	writes := make([]siteWrite, len(e.offs[f]))
	for j, off := range e.offs[f] {
		old := e.vals[f][j]
		nv := 1 + rng.Intn(1000)
		if nv == old {
			nv = old%1000 + 1
		}
		e.vals[f][j] = nv
		writes[j] = siteWrite{off, nv}
	}
	return writes
}

// apply performs writes on img in place.
func apply(img []byte, writes []siteWrite) {
	for _, w := range writes {
		binary.LittleEndian.PutUint32(img[w.off:], uint32(w.val))
	}
}

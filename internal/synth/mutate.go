// Source-level mutator for delta-rewrite testing: derive an edited
// variant of a generated program that differs from the original in a
// controlled, function-local way. MutateConsts models the delta-eligible
// edit class (free immediates change, instruction structure does not).
package synth

import (
	"math/rand"
	"regexp"
	"strconv"
	"strings"
)

var (
	funcLabelRe = regexp.MustCompile(`^\w+_f\d+:$`)
	moviConstRe = regexp.MustCompile(`^(    movi r2, )(\d+)$`)
)

// MutateConsts returns src with the numeric `movi r2, N` constants of
// count distinct generated functions replaced by fresh seeded values in
// the same inert range (1..1000 — movi encodes a full imm32, so the
// encoded length never changes, and the values stay far below the text
// base). count < 0 mutates every function that has a mutable site. The
// returned count is the number of functions actually mutated (less than
// requested when too few functions carry mutable sites).
func MutateConsts(src string, seed int64, count int) (string, int) {
	lines := strings.Split(src, "\n")
	// Collect the mutable line indices of each generated function, in
	// source order; main and prologue lines sit under function -1.
	fn := -1
	var funcs []int          // distinct functions with ≥1 mutable site
	sites := map[int][]int{} // function order index -> line indices
	for i, line := range lines {
		if funcLabelRe.MatchString(line) {
			fn++
			continue
		}
		if fn >= 0 && moviConstRe.MatchString(line) {
			if len(sites[fn]) == 0 {
				funcs = append(funcs, fn)
			}
			sites[fn] = append(sites[fn], i)
		}
	}
	if count < 0 || count > len(funcs) {
		count = len(funcs)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(funcs), func(i, j int) { funcs[i], funcs[j] = funcs[j], funcs[i] })
	for _, f := range funcs[:count] {
		for _, li := range sites[f] {
			m := moviConstRe.FindStringSubmatch(lines[li])
			old, _ := strconv.Atoi(m[2])
			nv := 1 + rng.Intn(1000)
			if nv == old {
				nv = old%1000 + 1
			}
			lines[li] = m[1] + strconv.Itoa(nv)
		}
	}
	return strings.Join(lines, "\n"), count
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/bench"
	"repro/internal/differ"
	"repro/internal/gen"
)

// workload is one set of inputs the benchmark runs. Sizes are constants so
// that two commits always measure the same work; why each workload exists
// is recorded in BENCHMARK.json and README.md.
type workload struct {
	name    string
	workers int // core.Options.Workers for every analysis
	size    int // programs in the pool
}

// workloads lists the benchmark's workloads in the order -workload all runs
// them. The generated pools are as large as one pass allows in a 20 s run
// on a 2-vCPU host, so no generated program repeats within a run.
var workloads = []workload{
	{"paper", 1, 8},
	{"paper-par", 2, 8},
	{"gen-safe", 1, 300},
	{"gen-buggy", 1, 200},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// program is one input: MPL source plus what its oracle needs.
type program struct {
	name string
	src  string
	// bug is the defect the generator injected (gen.BugNone when safe).
	bug gen.BugKind
	// nps and envs are the oracle's process counts and the free-symbol
	// bindings to simulate each with.
	nps  []int
	envs []map[string]int64
}

// paperScales are the scale parameters whose process counts (w.NPFor) the
// oracle simulates the paper programs at; the NAS-CG transposes grow as
// scale squared, so they use smaller scales.
var (
	paperScales = []int{4, 5, 7}
	nascgScales = []int{2, 3, 4}
)

// genNPs are the oracle process counts for generated programs; counts below
// a program's assumed floor are dropped, which leaves np 4..6 for the
// default generator floor.
var genNPs = []int{2, 3, 4, 5, 6}

// pool builds a workload's programs in pool order. The paper workloads use
// bench.All(); the generated workloads draw program i from
// differ.ProgramSeed(poolSeed, i), so the pool does not depend on the run
// seed.
func pool(w workload, poolSeed int64) []program {
	switch w.name {
	case "paper", "paper-par":
		var out []program
		for _, bw := range bench.All() {
			scales := paperScales
			if strings.HasPrefix(bw.Name, "nascg") {
				scales = nascgScales
			}
			p := program{name: bw.Name, src: bw.Src}
			for _, s := range scales {
				p.nps = append(p.nps, bw.NPFor(s))
				p.envs = append(p.envs, bw.Env(s))
			}
			out = append(out, p)
		}
		return out
	}
	out := make([]program, 0, w.size)
	for i := 0; i < w.size; i++ {
		r := rand.New(rand.NewSource(differ.ProgramSeed(poolSeed, i)))
		var cfg gen.Config
		name := fmt.Sprintf("%s#%d", w.name, i)
		if w.name == "gen-buggy" {
			cfg.Bug = gen.Bugs()[i%len(gen.Bugs())]
			name += "(" + string(cfg.Bug) + ")"
		}
		g := gen.New(r, cfg)
		p := program{name: name, src: g.Src, bug: g.Bug}
		for _, np := range genNPs {
			if np >= g.MinNP {
				p.nps = append(p.nps, np)
				p.envs = append(p.envs, g.Env)
			}
		}
		out = append(out, p)
	}
	return out
}

// runOrder is the seeded order in which every pass visits the pool.
func runOrder(n int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// inputsHash identifies a run's inputs: the program sources in run order,
// the seed and the engine worker count. Two runs with equal hashes analyzed
// the same programs in the same order.
func inputsHash(progs []program, order []int, seed int64, workers int) string {
	h := sha256.New()
	for _, i := range order {
		fmt.Fprintf(h, "%s\n%s\n", progs[i].name, progs[i].src)
	}
	fmt.Fprintf(h, "seed=%d workers=%d\n", seed, workers)
	return hex.EncodeToString(h.Sum(nil))
}

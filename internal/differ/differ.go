// Package differ is the differential-soundness harness: it analyzes an MPL
// program with the pCFG engine and concretizes the result against the
// explicit-state baseline (internal/modelcheck) at small process counts.
// The paper's appendix proves the baseline exact and
// interleaving-oblivious, so every divergence is a genuine defect,
// classified as:
//
//   - ClassSoundness — the analysis misses a real communication edge or
//     wrongly proves no configuration admits an np the program runs at;
//     a soundness bug, the worst class.
//   - ClassPrecision — the analysis over-approximates: a spurious edge or
//     rank, or a ⊤ give-up, on a program the oracle completes cleanly.
//     Sound but imprecise; tracked longitudinally in the bench history.
//
// Programs the oracle cannot judge (deadlocks, runtime errors, failed
// assumptions — expected for gen's deliberately-buggy mode) come back as
// ClassSkipped; harness failures (parse/sem/analysis errors) as
// ClassError.
package differ

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/cfg"
	"repro/internal/clients/cartesian"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/parser"
	"repro/internal/prof"
	"repro/internal/sem"
	"repro/internal/sim"
	"repro/internal/validate"
)

// Class is the divergence triage verdict, ordered by severity: a larger
// class is worse.
type Class int

// The verdict classes, least to most severe.
const (
	ClassOK        Class = iota
	ClassSkipped         // no oracle verdict (deadlock, runtime error, failed assume)
	ClassPrecision       // sound but imprecise: spurious edge/rank or ⊤
	ClassError           // harness failure: parse/sem/analysis error
	ClassSoundness       // analysis misses real behavior
)

func (c Class) String() string {
	switch c {
	case ClassOK:
		return "ok"
	case ClassSkipped:
		return "skipped"
	case ClassPrecision:
		return "precision"
	case ClassError:
		return "error"
	case ClassSoundness:
		return "soundness"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// ParseClass parses a Class name as rendered by String.
func ParseClass(s string) (Class, error) {
	for _, c := range []Class{ClassOK, ClassSkipped, ClassPrecision, ClassError, ClassSoundness} {
		if c.String() == s {
			return c, nil
		}
	}
	return ClassOK, fmt.Errorf("differ: unknown class %q", s)
}

// Finding is the triage result for one program.
type Finding struct {
	Class Class
	// NP is the process count the divergence was first observed at
	// (0 when np-independent, e.g. a ⊤ give-up).
	NP int
	// Detail is a deterministic, human-readable description of the first
	// (worst) divergence.
	Detail string
}

func (f *Finding) String() string {
	if f.NP > 0 {
		return fmt.Sprintf("%s@np=%d: %s", f.Class, f.NP, f.Detail)
	}
	return fmt.Sprintf("%s: %s", f.Class, f.Detail)
}

// Options tunes one differential check.
type Options struct {
	// NPs are the oracle process counts (default 2..6). Counts below the
	// program's assumed floor (its top-level "assume np >= k") are
	// skipped automatically.
	NPs []int
	// Env provides concrete values for free symbols when simulating.
	Env map[string]int64
	// Core seeds the analysis options: tuning overrides (MaxVisits,
	// MaxSets, NonBlockingSends, ...) flow into the analysis. The harness
	// sets the Matcher.
	Core core.Options
	// Profiler, when non-nil, collects the source-attribution profile of
	// the analysis.
	Profiler *prof.Profiler
}

func (o *Options) fill() {
	if len(o.NPs) == 0 {
		o.NPs = []int{2, 3, 4, 5, 6}
	}
}

// Check parses, analyzes and oracle-checks one program, returning its
// triage verdict. It never returns an error: harness failures are
// ClassError findings so sweeps can account for them.
func Check(src string, opts Options) *Finding {
	opts.fill()
	prog, err := parser.Parse("differ.mpl", src)
	if err != nil {
		return &Finding{Class: ClassError, Detail: fmt.Sprintf("parse: %v", err)}
	}
	if _, err := sem.Check(prog); err != nil {
		return &Finding{Class: ClassError, Detail: fmt.Sprintf("sem: %v", err)}
	}

	g := cfg.Build(prog)
	co := opts.Core
	co.Matcher = cartesian.New(core.ScanInvariants(g))
	co.Profiler = opts.Profiler
	seq, err := core.Analyze(g, co)
	if err != nil {
		return &Finding{Class: ClassError, Detail: fmt.Sprintf("analysis: %v", err)}
	}

	worst := &Finding{Class: ClassOK, Detail: "exact at every checked np"}
	record := func(f *Finding) {
		if f.Class > worst.Class {
			worst = f
		}
	}

	// Oracle comparison at each admissible np.
	minNP := assumedMinNP(prog)
	checked := 0
	for _, np := range opts.NPs {
		if np < minNP {
			continue
		}
		f := checkAtNP(g, seq, np, opts.Env)
		record(f)
		if f.Class != ClassSkipped {
			checked++
		}
	}
	if checked == 0 && worst.Class == ClassOK {
		return &Finding{Class: ClassSkipped, Detail: "no np admitted an oracle run"}
	}

	// A ⊤ give-up on a program the oracle completed cleanly is precision
	// loss even when some final concretizes exactly (the spurious-⊤ class
	// PR 7's bug belonged to).
	if checked > 0 && len(seq.Tops) > 0 {
		record(&Finding{Class: ClassPrecision,
			Detail: fmt.Sprintf("analysis gave up (⊤): %s", strings.Join(seq.TopReasons(), "; "))})
	}
	return worst
}

// checkAtNP compares the analysis result against the explicit-state
// baseline at one concrete process count.
func checkAtNP(g *cfg.Graph, res *core.Result, np int, env map[string]int64) *Finding {
	simRes, err := sim.Run(g, np, sim.Options{Env: env})
	if err != nil {
		return &Finding{Class: ClassSkipped, NP: np, Detail: fmt.Sprintf("runtime error: %v", err)}
	}
	if len(simRes.Failures) > 0 {
		return &Finding{Class: ClassSkipped, NP: np,
			Detail: fmt.Sprintf("assumption failed at np=%d: %s", np, simRes.Failures[0].Cond)}
	}
	if simRes.Deadlocked {
		return &Finding{Class: ClassSkipped, NP: np, Detail: fmt.Sprintf("deadlocks at np=%d", np)}
	}
	want := validate.FromSim(simRes.Events)

	fullEnv := map[string]int64{"np": int64(np)}
	for k, v := range env {
		fullEnv[k] = v
	}
	consistent := 0
	bestMissing, bestExtra := -1, -1
	var bestDetail string
	for _, fin := range res.Finals {
		if !validate.ConsistentWithNP(fin, np, fullEnv) {
			continue
		}
		consistent++
		got := validate.FromState(fin, fullEnv)
		missing, extra := pairSetDelta(got, want)
		if len(missing) == 0 && len(extra) == 0 {
			return &Finding{Class: ClassOK, NP: np}
		}
		// Track the final closest to the truth: fewest missing ranks, then
		// fewest spurious ones.
		if bestMissing < 0 || len(missing) < bestMissing ||
			(len(missing) == bestMissing && len(extra) < bestExtra) {
			bestMissing, bestExtra = len(missing), len(extra)
			bestDetail = deltaDetail(missing, extra)
		}
	}
	switch {
	case consistent == 0 && len(res.Tops) > 0:
		return &Finding{Class: ClassPrecision, NP: np,
			Detail: fmt.Sprintf("gave up (⊤) and no final admits np=%d: %s", np, strings.Join(res.TopReasons(), "; "))}
	case consistent == 0:
		return &Finding{Class: ClassSoundness, NP: np,
			Detail: fmt.Sprintf("no final configuration admits np=%d (oracle saw %d messages)", np, simRes.Steps)}
	case bestMissing == 0:
		return &Finding{Class: ClassPrecision, NP: np,
			Detail: fmt.Sprintf("spurious communication at np=%d: %s", np, bestDetail)}
	case len(res.Tops) > 0:
		// The surviving finals miss real behavior, but the analysis also
		// gave up on part of the state space: the ⊤ configurations cover
		// the missing pairs, so the result is sound-but-imprecise, not a
		// soundness hole.
		return &Finding{Class: ClassPrecision, NP: np,
			Detail: fmt.Sprintf("finals incomplete at np=%d (⊤ covers the rest): %s", np, bestDetail)}
	default:
		return &Finding{Class: ClassSoundness, NP: np,
			Detail: fmt.Sprintf("analysis misses real communication at np=%d: %s", np, bestDetail)}
	}
}

// pairSetDelta compares a concretized analysis topology against the
// oracle's, returning the facts only the oracle saw (missing — a
// soundness hole) and the facts only the analysis claims (extra — a
// precision loss). Facts are rendered deterministically.
func pairSetDelta(got, want *validate.PairSet) (missing, extra []string) {
	edges := map[[2]int]bool{}
	for e := range got.Senders {
		edges[e] = true
	}
	for e := range want.Senders {
		edges[e] = true
	}
	ordered := make([][2]int, 0, len(edges))
	for e := range edges {
		ordered = append(ordered, e)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i][0] != ordered[j][0] {
			return ordered[i][0] < ordered[j][0]
		}
		return ordered[i][1] < ordered[j][1]
	})
	for _, e := range ordered {
		for _, side := range []struct {
			name      string
			got, want map[int64]bool
		}{
			{"senders", got.Senders[e], want.Senders[e]},
			{"receivers", got.Receivers[e], want.Receivers[e]},
		} {
			onlyWant := setMinus(side.want, side.got)
			onlyGot := setMinus(side.got, side.want)
			if len(onlyWant) > 0 {
				missing = append(missing, fmt.Sprintf("n%d->n%d %s %v", e[0], e[1], side.name, onlyWant))
			}
			if len(onlyGot) > 0 {
				extra = append(extra, fmt.Sprintf("n%d->n%d %s %v", e[0], e[1], side.name, onlyGot))
			}
		}
	}
	return missing, extra
}

func setMinus(a, b map[int64]bool) []int64 {
	var out []int64
	for v := range a {
		if !b[v] {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func deltaDetail(missing, extra []string) string {
	var parts []string
	if len(missing) > 0 {
		parts = append(parts, "missing "+strings.Join(missing, ", "))
	}
	if len(extra) > 0 {
		parts = append(parts, "spurious "+strings.Join(extra, ", "))
	}
	return strings.Join(parts, "; ")
}

// assumedMinNP extracts the np floor from the program's top-level
// "assume np >= k" / "assume np > k" statements, so the oracle only runs
// process counts the program was written for.
func assumedMinNP(prog *ast.Program) int {
	min := 1
	ast.WalkStmts(prog.Stmts, func(s ast.Stmt) bool {
		a, ok := s.(*ast.Assume)
		if !ok {
			return true
		}
		if b, ok := a.Cond.(*ast.Binary); ok {
			if id, ok := b.L.(*ast.Ident); ok && id.Name == "np" {
				if lit, ok := b.R.(*ast.IntLit); ok {
					switch b.Op {
					case ast.Ge:
						if int(lit.Value) > min {
							min = int(lit.Value)
						}
					case ast.Gt:
						if int(lit.Value)+1 > min {
							min = int(lit.Value) + 1
						}
					}
				}
			}
		}
		return true
	})
	return min
}

// ---------------------------------------------------------------------------
// Sweeps

// SweepOptions configures a generated-program sweep.
type SweepOptions struct {
	// Seed is the base seed: program i is generated from the deterministic
	// sub-seed Seed + i*1000003, so any single program is reproducible
	// from (Seed, i) alone.
	Seed int64
	// N is how many programs to generate and check.
	N int
	// Gen configures the generator (zero value: defaults).
	Gen gen.Config
	// BuggyFraction is the fraction of programs generated with a deliberate
	// defect (oracle-skipped; exercises the lint-facing surface). 0 = all
	// safe.
	BuggyFraction float64
	// Differ configures each check.
	Differ Options
	// Progress, when non-nil, is called after each program with the index
	// and its finding (the psdf fuzz CLI uses it for -v output).
	Progress func(i int, p gen.Program, f *Finding)
	// Attribute turns on per-construct precision attribution: each
	// program's sequential reference run is profiled, and its widening
	// failures / give-ups / ⊤ demotions are attributed to the generator
	// phase (by source line range) that emitted the blamed statement.
	// The aggregate lands in SweepResult.Attribution.
	Attribute bool
}

// SweepFinding is one divergent program from a sweep.
type SweepFinding struct {
	Index   int
	Seed    int64
	Program gen.Program
	Finding *Finding
}

// SweepResult aggregates a sweep.
type SweepResult struct {
	Programs int
	Counts   map[Class]int
	// Findings holds every program whose class is worse than ClassSkipped
	// (precision, error, engine, soundness), in sweep order.
	Findings []SweepFinding
	// Attribution is the ranked per-construct precision-loss aggregate
	// (nil unless SweepOptions.Attribute).
	Attribution *prof.SweepAttribution
}

// Count reports how many programs landed in class c.
func (r *SweepResult) Count(c Class) int { return r.Counts[c] }

// PrecisionRate is the fraction of oracle-checked (non-skipped) programs
// with a precision-loss finding.
func (r *SweepResult) PrecisionRate() float64 {
	checked := r.Programs - r.Counts[ClassSkipped]
	if checked <= 0 {
		return 0
	}
	return float64(r.Counts[ClassPrecision]) / float64(checked)
}

// ProgramSeed returns the deterministic sub-seed of program i in a sweep
// with base seed.
func ProgramSeed(seed int64, i int) int64 { return seed + int64(i)*1000003 }

// phaseRanges converts the generator's phase line records into the
// profiler's neutral construct ranges.
func phaseRanges(p gen.Program) []prof.LineRange {
	out := make([]prof.LineRange, 0, len(p.PhaseLines))
	for _, pl := range p.PhaseLines {
		out = append(out, prof.LineRange{Label: string(pl.Family), Start: pl.Start, End: pl.End})
	}
	return out
}

// Sweep generates N programs and triages each one.
func Sweep(opts SweepOptions) *SweepResult {
	res := &SweepResult{Counts: map[Class]int{}}
	if opts.Attribute {
		res.Attribution = prof.NewSweepAttribution()
	}
	for i := 0; i < opts.N; i++ {
		r := rand.New(rand.NewSource(ProgramSeed(opts.Seed, i)))
		cfg := opts.Gen
		if opts.BuggyFraction > 0 && r.Float64() < opts.BuggyFraction {
			bugs := gen.Bugs()
			cfg.Bug = bugs[r.Intn(len(bugs))]
		}
		p := gen.New(r, cfg)
		do := opts.Differ
		do.Env = p.Env
		var pr *prof.Profiler
		if opts.Attribute {
			pr = prof.New()
			do.Profiler = pr
		}
		f := Check(p.Src, do)
		if opts.Attribute {
			rep := pr.Report(fmt.Sprintf("program-%d", i), p.Src)
			res.Attribution.Add(rep, phaseRanges(p), "decor")
		}
		res.Programs++
		res.Counts[f.Class]++
		if f.Class > ClassSkipped {
			res.Findings = append(res.Findings, SweepFinding{
				Index: i, Seed: ProgramSeed(opts.Seed, i), Program: p, Finding: f,
			})
		}
		if opts.Progress != nil {
			opts.Progress(i, p, f)
		}
	}
	return res
}

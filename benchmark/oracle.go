package main

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/gen"
	"repro/internal/lint"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/sim"
	"repro/internal/validate"
)

// class is the verdict classification of one run, ordered by severity.
type class int

const (
	// classExact: the verdict equals the oracle's answer. For a safe program
	// the analysis is clean and, at every oracle process count, some final
	// concretizes to exactly the simulated topology (validate.Check's rule).
	// For a buggy program the lint report names the injected bug's code.
	classExact class = iota
	// classImprecise: sound but not exact — a ⊤ give-up, spurious
	// communication, or a buggy program whose lint errors miss the injected
	// code. A sound "don't know"; not a failure.
	classImprecise
	// classUnsound: the oracle saw communication that no final and no ⊤
	// covers (differ's ClassSoundness rule).
	classUnsound
	// classSilentMiss: a buggy program passed lint with no error-severity
	// finding.
	classSilentMiss
	// classError: the pipeline returned an error.
	classError
	numClasses
)

var classNames = [numClasses]string{"exact", "imprecise", "unsound", "silent_miss", "error"}

func (c class) String() string { return classNames[c] }

// failed reports whether the class counts as a failed run.
func (c class) failed() bool { return c >= classUnsound }

// bugCode is the lint code each injectable defect must be reported under.
var bugCode = map[gen.BugKind]string{
	gen.BugLeak:        diag.CodeMessageLeak,
	gen.BugStuckRecv:   diag.CodeDeadlock,
	gen.BugTagMismatch: diag.CodeTagMismatch,
	gen.BugRankBounds:  diag.CodeRankBounds,
}

// oracleRun is the simulator's ground truth at one process count.
type oracleRun struct {
	np  int
	env map[string]int64 // np plus the program's free-symbol bindings
	// judged is false when the simulation errs, fails an assumption,
	// deadlocks or leaks a message: the analysis (blocking sends) and the
	// simulator (buffered sends) then disagree by design, so the topology
	// cannot be compared.
	judged bool
	want   *validate.PairSet
}

// oracle is a program's analyzer-independent answer.
type oracle struct {
	bug  gen.BugKind
	runs []oracleRun
}

// prepareOracle simulates p at each of its oracle process counts. The
// simulator shares only the front end (parser, sem, cfg) with the analyzer.
func prepareOracle(p program) (*oracle, error) {
	prog, err := parser.Parse(p.name+".mpl", p.src)
	if err != nil {
		return nil, fmt.Errorf("oracle: %s: %w", p.name, err)
	}
	if _, err := sem.Check(prog); err != nil {
		return nil, fmt.Errorf("oracle: %s: %w", p.name, err)
	}
	g := cfg.Build(prog)
	o := &oracle{bug: p.bug}
	for i, np := range p.nps {
		env := map[string]int64{"np": int64(np)}
		for k, v := range p.envs[i] {
			env[k] = v
		}
		run := oracleRun{np: np, env: env}
		sr, err := sim.Run(g, np, sim.Options{Env: p.envs[i]})
		if err == nil && len(sr.Failures) == 0 && !sr.Deadlocked && len(sr.Leaked) == 0 {
			run.judged = true
			run.want = validate.FromSim(sr.Events)
		} else if p.bug == gen.BugNone {
			return nil, fmt.Errorf("oracle: %s: the simulation at np=%d did not complete cleanly", p.name, np)
		}
		o.runs = append(o.runs, run)
	}
	return o, nil
}

// classify compares one analysis result and its lint report with the
// oracle. Soundness is checked at every judged process count for safe and
// buggy programs alike; exactness means the topology for safe programs and
// the injected bug's code for buggy ones.
func classify(o *oracle, res *core.Result, rep *lint.Report) class {
	worst := classExact
	for _, run := range o.runs {
		if run.judged {
			worst = max(worst, checkNP(res, run))
		}
	}
	if worst == classUnsound {
		return classUnsound
	}
	if o.bug != gen.BugNone {
		if !rep.HasErrors() {
			return classSilentMiss
		}
		for _, d := range rep.Diags {
			if d.Code == bugCode[o.bug] {
				return classExact
			}
		}
		return classImprecise
	}
	if worst == classExact && !res.Clean() {
		return classImprecise
	}
	return worst
}

// checkNP applies differ's per-np rule: exact when a final consistent with
// np concretizes to the oracle's topology; imprecise when such a final only
// adds communication or a ⊤ covers what the finals miss; unsound when
// real communication is missed and nothing covers it.
func checkNP(res *core.Result, run oracleRun) class {
	overApprox := false
	for _, fin := range res.Finals {
		if !validate.ConsistentWithNP(fin, run.np, run.env) {
			continue
		}
		got := validate.FromState(fin, run.env)
		if ok, _ := validate.Equal(got, run.want); ok {
			return classExact
		}
		if !misses(got, run.want) {
			overApprox = true
		}
	}
	if overApprox || len(res.Tops) > 0 {
		return classImprecise
	}
	return classUnsound
}

// misses reports whether want holds a (edge, rank) fact that got lacks.
func misses(got, want *validate.PairSet) bool {
	for edge, senders := range want.Senders {
		for r := range senders {
			if !got.Senders[edge][r] {
				return true
			}
		}
		for r := range want.Receivers[edge] {
			if !got.Receivers[edge][r] {
				return true
			}
		}
	}
	return false
}

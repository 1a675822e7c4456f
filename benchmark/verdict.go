package main

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/cg"
	"repro/internal/clients/cartesian"
	"repro/internal/core"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/sem"
)

// probes are the in-engine observers a traced run attaches; all nil in an
// untraced run.
type probes struct {
	tr     *tracer
	phases *obs.Tracer // the engine's phase totals (core.Options.Tracer)
	cg     *cg.Stats
}

// verdict is the outcome of one source-to-verdict run.
type verdict struct {
	res     *core.Result
	rep     *lint.Report
	matcher *countingMatcher
	err     error
}

// counts are a Workers=1 run's deterministic counters: they must repeat
// exactly every time the same program is analyzed.
type counts struct {
	steps, widenings, configs int
	matchCalls                int64
	class                     class
}

func (v *verdict) counts(c class) counts {
	if v.err != nil {
		return counts{class: c}
	}
	return counts{v.res.Steps, v.res.Widenings, v.res.Configs, v.matcher.calls.Load(), c}
}

// runVerdict takes one program from source to lint verdict, calling the
// layers the way `psdf lint` does: parse, check, build the CFG, set up the
// cartesian client, run the fixpoint, lint the result. visit and input
// label the spans of a traced run.
func runVerdict(p *program, workers int, pr probes, visit, input int) (v verdict) {
	tr := pr.tr
	root := tr.begin(visit, input, -1, layerVerdict)
	defer tr.end(root)

	sp := tr.begin(visit, input, root, layerParse)
	prog, err := parser.Parse(p.name+".mpl", p.src)
	tr.end(sp)
	if err != nil {
		v.err = fmt.Errorf("%s: %w", p.name, err)
		return v
	}
	sp = tr.begin(visit, input, root, layerSem)
	_, err = sem.Check(prog)
	tr.end(sp)
	if err != nil {
		v.err = fmt.Errorf("%s: %w", p.name, err)
		return v
	}
	sp = tr.begin(visit, input, root, layerCFG)
	g := cfg.Build(prog)
	tr.end(sp)

	sp = tr.begin(visit, input, root, layerSetup)
	m := &countingMatcher{Matcher: cartesian.New(core.ScanInvariants(g)), tr: tr, visit: visit, input: input}
	tr.end(sp)

	sp = tr.begin(visit, input, root, layerAnalyze)
	m.parent = sp
	v.matcher = m
	v.res, err = core.Analyze(g, core.Options{
		Matcher:          m,
		Workers:          workers,
		RecordCommBounds: true, // as lint.Load: the rank-bounds pass needs the observations
		CGOpts:           cg.Options{Stats: pr.cg},
		Tracer:           pr.phases,
	})
	tr.end(sp)
	if err != nil {
		v.err = fmt.Errorf("%s: %w", p.name, err)
		return v
	}

	sp = tr.begin(visit, input, root, layerLint)
	v.rep = lint.Run(&lint.Target{Path: p.name + ".mpl", Prog: prog, File: prog.File, G: g, Res: v.res}, lint.Options{})
	tr.end(sp)
	return v
}

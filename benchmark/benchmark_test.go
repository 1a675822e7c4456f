package main

import (
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/cfg"
	"repro/internal/clients/cartesian"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/lint"
	"repro/internal/parser"
	"repro/internal/validate"
)

const definitionPath = "../BENCHMARK.json"

// smoke runs one workload at a reduced size: the first four programs of
// pool 2, whose generated programs analyze quickly, in one pass.
func smoke(t *testing.T, workload string, seed int64, trace bool) *runResult {
	t.Helper()
	res, err := run(config{workload: workload, seed: seed, pool: 2, seconds: 0, trace: trace, limit: 4})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

func TestDefinitionMatchesHarness(t *testing.T) {
	def, err := readDefinition(definitionPath)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var defNames []string
	for _, w := range def.Workloads {
		defNames = append(defNames, w.Name)
	}
	if !reflect.DeepEqual(names, defNames) {
		t.Errorf("workloads: harness %v, BENCHMARK.json %v", names, defNames)
	}
	var e2e []metricSpec
	for _, m := range def.EndToEnd {
		e2e = append(e2e, m.metricSpec)
	}
	if !reflect.DeepEqual(endToEnd, e2e) {
		t.Errorf("end-to-end metrics: harness %v, BENCHMARK.json %v", endToEnd, e2e)
	}
	if !reflect.DeepEqual(perLayer, def.PerLayer) {
		t.Errorf("per-layer metrics: harness %v, BENCHMARK.json %v", perLayer, def.PerLayer)
	}
}

// TestSmokeAllWorkloads runs every workload untraced at seed 1 and traced
// at seed 2, checks that the printed metrics, with units, are exactly
// BENCHMARK.json's, and on Workers=1 workloads that both invocations give
// every program the same count vector although they visit the programs in
// different orders.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		plain, traced := smoke(t, w.name, 1, false), smoke(t, w.name, 2, true)
		for _, res := range []*runResult{plain, traced} {
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d classes=%v", w.name, res.Trace, res.Correct, res.Failed, res.Classes)
			}
			want := endToEnd
			if res.Trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, res.Trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, res.Trace, m.Name, got, m.Unit)
				}
			}
		}
		if u := traced.Metrics["trace.unattributed_share"].Value; u > 0.02 {
			t.Errorf("%s: unattributed share %.4f > 2%%", w.name, u)
		}
		if plain.InputsSHA256 == traced.InputsSHA256 {
			t.Errorf("%s: seeds 1 and 2 give the same inputs hash", w.name)
		}
		if w.workers != 1 {
			continue
		}
		if len(plain.first) != plain.Programs {
			t.Errorf("%s: counts for %d of %d programs", w.name, len(plain.first), plain.Programs)
		}
		if !reflect.DeepEqual(plain.first, traced.first) {
			t.Errorf("%s: count vectors differ between runs:\n%v\n%v", w.name, plain.first, traced.first)
		}
	}
}

func TestInputsHashIsAFunctionOfTheInputs(t *testing.T) {
	progs := pool(workloads[2], 1)[:4]
	a := inputsHash(progs, runOrder(len(progs), 1), 1, 1)
	if b := inputsHash(pool(workloads[2], 1)[:4], runOrder(len(progs), 1), 1, 1); a != b {
		t.Error("same inputs, different hashes")
	}
	if b := inputsHash(pool(workloads[2], 2)[:4], runOrder(len(progs), 1), 1, 1); a == b {
		t.Error("another pool, same hash")
	}
}

// analyzed runs the pipeline on one paper workload with the given options.
func analyzed(t *testing.T, w *bench.Workload, opts core.Options) (*cfg.Graph, *core.Result, *lint.Report) {
	t.Helper()
	prog, err := parser.Parse(w.Name+".mpl", w.Src)
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Build(prog)
	opts.Matcher = cartesian.New(core.ScanInvariants(g))
	opts.RecordCommBounds = true
	res, err := core.Analyze(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return g, res, lint.Run(&lint.Target{Path: w.Name, Prog: prog, File: prog.File, G: g, Res: res}, lint.Options{})
}

func paperOracle(t *testing.T, name string) (*bench.Workload, program, *oracle) {
	t.Helper()
	for i, p := range pool(workloads[0], 1) {
		if p.name == name {
			o, err := prepareOracle(p)
			if err != nil {
				t.Fatal(err)
			}
			return bench.All()[i], p, o
		}
	}
	t.Fatalf("no paper program %s", name)
	return nil, program{}, nil
}

// TestClassifierExactAgreesWithValidate: every paper program is exact, and
// exact means validate.Check passes at each oracle process count.
func TestClassifierExactAgreesWithValidate(t *testing.T) {
	for _, p := range pool(workloads[0], 1) {
		w, _, o := paperOracle(t, p.name)
		g, res, rep := analyzed(t, w, core.Options{})
		if c := classify(o, res, rep); c != classExact {
			t.Errorf("%s: class %v, want exact", p.name, c)
		}
		for i, np := range p.nps {
			if err := validate.Check(g, res, np, p.envs[i]); err != nil {
				t.Errorf("%s: %v", p.name, err)
			}
		}
	}
}

func TestClassifierUnsound(t *testing.T) {
	fig7, _, _ := paperOracle(t, "fig7_shift")
	_, _, stencil := paperOracle(t, "stencil1d")
	_, res, rep := analyzed(t, fig7, core.Options{})
	c := classify(stencil, res, rep)
	if c != classUnsound || !c.failed() {
		t.Errorf("fig7_shift against stencil1d's oracle: class %v (failed=%v), want unsound", c, c.failed())
	}
}

func TestClassifierForcedGiveUpIsImprecise(t *testing.T) {
	w, _, o := paperOracle(t, "stencil1d")
	_, res, rep := analyzed(t, w, core.Options{MaxVisits: 1})
	if len(res.Tops) == 0 {
		t.Fatal("MaxVisits=1 did not force a give-up")
	}
	if c := classify(o, res, rep); c != classImprecise || c.failed() {
		t.Errorf("forced give-up: class %v (failed=%v), want imprecise", c, c.failed())
	}
}

func TestClassifierBuggyPrograms(t *testing.T) {
	w, _, o := paperOracle(t, "fig2_exchange")
	_, res, rep := analyzed(t, w, core.Options{})
	o.bug = gen.BugLeak // a clean lint report cannot catch an injected leak
	if c := classify(o, res, rep); c != classSilentMiss || !c.failed() {
		t.Errorf("clean report on a buggy program: class %v, want silent_miss", c)
	}

	w = bench.LeakyBroadcast()
	p := program{name: w.Name, src: w.Src, bug: gen.BugLeak, nps: []int{4}, envs: []map[string]int64{nil}}
	o, err := prepareOracle(p)
	if err != nil {
		t.Fatal(err)
	}
	_, res, rep = analyzed(t, w, core.Options{})
	if c := classify(o, res, rep); c != classExact {
		t.Errorf("leaky broadcast: class %v, want exact (PSDF-E001 reported)", c)
	}
}

func TestMedianSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]; median 5.5.
	med, spread := medianSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if med != 5.5 || spread != (8.25-2.75)/5.5 {
		t.Errorf("median %v spread %v", med, spread)
	}
}

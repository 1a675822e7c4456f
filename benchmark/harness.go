package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/cg"
	"repro/internal/obs"
)

// config selects one benchmark run.
type config struct {
	workload string
	seed     int64 // orders the pool
	pool     int64 // draws the generated programs
	seconds  float64
	trace    bool
	// limit caps the pool at its first limit programs (0 keeps all); the
	// smoke test runs every workload at a reduced size with it.
	limit int
}

const (
	// setupReps is how many times a run sets up; setup_s is their median.
	setupReps = 5
	// warmupPrograms is the size of the untimed warm-up pass: it fills the
	// process-global cg atom table before timing starts.
	warmupPrograms = 8
	// verdictLimit is the longest a verdict may take before it counts as
	// failed.
	verdictLimit = 5 * time.Second
)

// sample is one timed verdict.
type sample struct {
	input  int   // pool index
	ns     int64 // source-to-verdict wall time
	allocs uint64
	counts counts
	failed bool
}

// layerTotals accumulates a traced run's per-program counters.
type layerTotals struct {
	diags, tops               int
	steps, widenings, configs int
	matchCalls, matchProved   int64
	memoHits, memoMisses      int
	proverSearches, proverNs  int64
}

// runResult is everything one run measured.
type runResult struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Pool         int64   `json:"pool"`
	Workers      int     `json:"workers"`
	Seconds      float64 `json:"seconds"`
	Trace        bool    `json:"trace"`
	InputsSHA256 string  `json:"inputs_sha256"`
	Programs     int     `json:"programs"`
	Passes       int     `json:"passes"`
	Samples      int     `json:"samples"`
	// TailPercentile is the percentile verdict_tail_ms reports.
	TailPercentile float64        `json:"tail_percentile"`
	Classes        map[string]int `json:"classes"`
	Timeouts       int            `json:"timeouts"`
	Correct        bool           `json:"correct"`
	Attempted      int            `json:"attempted"`
	Failed         int            `json:"failed"`
	// RefMs is the run's median reference-kernel time. Time metrics are
	// scaled to a host where it is 1 ms: multiply by RefMs for raw times.
	RefMs   float64           `json:"ref_ms"`
	Metrics map[string]metric `json:"metrics"`

	rows  []programRow
	spans *tracer
	// first holds each program's counts from its first Workers=1 run.
	first map[int]counts
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// programRow is one program's line in the run report.
type programRow struct {
	name    string
	samples int
	p50ms   float64
	classes [numClasses]int
}

// inputs is a set-up workload.
type inputs struct {
	progs   []program
	oracles []*oracle
	warm    []counts // warm-up counts of the first programs in pool order
}

// setup generates the workload's programs, runs their oracles, and analyzes
// the first warmupPrograms of them untimed.
func setup(c config, w workload) (*inputs, error) {
	progs := pool(w, c.pool)
	if c.limit > 0 && c.limit < len(progs) {
		progs = progs[:c.limit]
	}
	in := &inputs{progs: progs}
	for _, p := range progs {
		o, err := prepareOracle(p)
		if err != nil {
			return nil, err
		}
		in.oracles = append(in.oracles, o)
	}
	for i := 0; i < min(warmupPrograms, len(progs)); i++ {
		v := runVerdict(&progs[i], w.workers, probes{}, -1, i)
		if v.err != nil {
			return nil, fmt.Errorf("warm-up: %w", v.err)
		}
		in.warm = append(in.warm, v.counts(classify(in.oracles[i], v.res, v.rep)))
	}
	return in, nil
}

// determinism remembers each program's first counts and rejects any later
// run that differs. Only Workers=1 runs are deterministic by contract.
type determinism struct {
	first map[int]counts
}

func (d *determinism) check(p *program, input int, c counts) error {
	if prev, ok := d.first[input]; !ok {
		d.first[input] = c
	} else if prev != c {
		return fmt.Errorf("determinism: %s: counts (steps, widenings, configs, match calls, class) %v, then %v", p.name, prev, c)
	}
	return nil
}

// run executes one benchmark run: set up setupReps times, then measure
// whole passes over the pool in seeded order for about c.seconds.
func run(c config) (*runResult, error) {
	w, ok := lookupWorkload(c.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", c.workload)
	}
	det := &determinism{first: map[int]counts{}}
	clock := &hostClock{}
	var in *inputs
	setups := make([]float64, setupReps)
	for r := range setups {
		clock.tick()
		start := time.Now()
		var err error
		if in, err = setup(c, w); err != nil {
			return nil, err
		}
		setups[r] = time.Since(start).Seconds()
		if w.workers == 1 {
			for i, wc := range in.warm {
				if err := det.check(&in.progs[i], i, wc); err != nil {
					return nil, err
				}
			}
		}
	}
	order := runOrder(len(in.progs), c.seed)
	res := &runResult{
		Workload: w.name, Seed: c.seed, Pool: c.pool, Workers: w.workers,
		Seconds: c.seconds, Trace: c.trace,
		InputsSHA256: inputsHash(in.progs, order, c.seed, w.workers),
		Programs:     len(in.progs),
		Classes:      map[string]int{},
	}
	for _, n := range classNames {
		res.Classes[n] = 0
	}

	var pr probes
	if c.trace {
		pr = probes{tr: newTracer(), phases: obs.NewAggregate(), cg: &cg.Stats{}}
	}
	var (
		plain, traced []sample
		lt            layerTotals
		oracleNs      int64
		rowClasses    = make([][numClasses]int, len(in.progs))
		ms            runtime.MemStats
	)
	// timed runs one verdict: allocations are read around it and the oracle
	// check runs after the clock stops.
	timed := func(input, visit int, p probes) (sample, verdict, error) {
		prog := &in.progs[input]
		runtime.ReadMemStats(&ms)
		a0 := ms.Mallocs
		t0 := time.Now()
		v := runVerdict(prog, w.workers, p, visit, input)
		ns := time.Since(t0).Nanoseconds()
		runtime.ReadMemStats(&ms)
		s := sample{input: input, ns: ns, allocs: ms.Mallocs - a0}

		c0 := time.Now()
		cl := classError
		if v.err == nil {
			cl = classify(in.oracles[input], v.res, v.rep)
		}
		oracleNs += time.Since(c0).Nanoseconds()
		clock.tick()

		s.counts = v.counts(cl)
		s.failed = cl.failed() || time.Duration(ns) > verdictLimit
		res.Classes[cl.String()]++
		rowClasses[input][cl]++
		if time.Duration(ns) > verdictLimit {
			res.Timeouts++
		}
		if w.workers == 1 {
			if err := det.check(prog, input, s.counts); err != nil {
				return s, v, err
			}
		}
		return s, v, nil
	}

	gc0 := cpuSeconds()
	start := time.Now()
	visit := 0
	for {
		for _, input := range order {
			s, _, err := timed(input, visit, probes{})
			if err != nil {
				return nil, err
			}
			plain = append(plain, s)
			if c.trace {
				s, v, err := timed(input, visit, pr)
				if err != nil {
					return nil, err
				}
				traced = append(traced, s)
				lt.add(&v)
			}
			visit++
		}
		res.Passes++
		// Start another pass only if it should end within the budget.
		elapsed := time.Since(start).Seconds()
		if elapsed+elapsed/float64(res.Passes) > c.seconds {
			break
		}
	}
	gc1 := cpuSeconds()

	all := append(append([]sample(nil), plain...), traced...)
	res.Samples = len(plain)
	res.TailPercentile = 100 * tailQuantile(len(plain))
	res.Attempted = len(all)
	for _, s := range all {
		if s.failed {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	res.rows = rows(in.progs, plain, rowClasses)
	res.first = det.first
	if c.trace {
		res.Metrics = layerMetrics(pr, &lt, traced, plain, oracleNs, gc1.sub(gc0))
		res.spans = pr.tr
	} else {
		res.Metrics = endToEndMetrics(plain, res.Classes[classExact.String()], setups)
	}
	res.RefMs = clock.refMs()
	normalize(res.Metrics, clock.scale())
	for i := range res.rows {
		res.rows[i].p50ms *= clock.scale()
	}
	return res, nil
}

// normalize converts the time-valued metrics to the nominal host.
func normalize(ms map[string]metric, scale float64) {
	for name, m := range ms {
		switch m.Unit {
		case "s", "ms", "us":
			m.Value *= scale
		case "programs/s":
			m.Value /= scale
		}
		ms[name] = m
	}
}

func (lt *layerTotals) add(v *verdict) {
	if v.err != nil {
		return
	}
	lt.diags += len(v.rep.Diags)
	lt.tops += len(v.res.Tops)
	lt.steps += v.res.Steps
	lt.widenings += v.res.Widenings
	lt.configs += v.res.Configs
	lt.matchCalls += v.matcher.calls.Load()
	lt.matchProved += v.matcher.proved.Load()
	lt.memoHits += v.matcher.Memo().HitCount()
	lt.memoMisses += v.matcher.Memo().MissCount()
	lt.proverSearches += v.matcher.ProverSearches()
	lt.proverNs += v.matcher.ProverSearchNs()
}

// tailQuantile is the 99th percentile when at least ten samples lie beyond
// it (the paper workloads, with thousands of samples) and the 95th
// otherwise (the generated workloads, one sample per program).
func tailQuantile(n int) float64 {
	if float64(n)*0.01 >= 10 {
		return 0.99
	}
	return 0.95
}

// endToEndMetrics derives the user-facing metrics of an untraced run.
// Latency percentiles are over every sample; every program has the same
// number of samples because only whole passes run.
func endToEndMetrics(plain []sample, exact int, setups []float64) map[string]metric {
	ns := make([]float64, len(plain))
	var sum float64
	var allocs uint64
	for i, s := range plain {
		ns[i] = float64(s.ns)
		sum += ns[i]
		allocs += s.allocs
	}
	sort.Float64s(ns)
	n := float64(len(plain))
	return map[string]metric{
		"programs_per_s":     {n / (sum / 1e9), "programs/s"},
		"verdict_p50_ms":     {percentile(ns, 0.50) / 1e6, "ms"},
		"verdict_tail_ms":    {percentile(ns, tailQuantile(len(ns))) / 1e6, "ms"},
		"exact_share":        {float64(exact) / n, "share"},
		"allocs_per_program": {float64(allocs) / n, "allocs"},
		"peak_rss_mb":        {peakRSSMB(), "MB"},
		"setup_s":            {median(setups), "s"},
	}
}

// layerMetrics derives the per-layer means of a traced run.
func layerMetrics(pr probes, lt *layerTotals, traced, plain []sample, oracleNs int64, cpu cpuStats) map[string]metric {
	n := float64(len(traced))
	total, self := pr.tr.selfTimes()
	perUs := func(layer string) float64 { return float64(self[layer]) / n / 1e3 }
	perMs := func(ns int64) float64 { return float64(ns) / n / 1e6 }
	per := func(x float64) float64 { return x / n }
	ph := pr.phases.Totals()
	phase := func(name string) int64 { return int64(ph[name].Total) }
	st := pr.cg
	var plainNs, tracedNs int64
	for _, s := range plain {
		plainNs += s.ns
	}
	for _, s := range traced {
		tracedNs += s.ns
	}
	return map[string]metric{
		"parser.parse_us":               {perUs(layerParse), "us"},
		"sem.check_us":                  {perUs(layerSem), "us"},
		"cfg.build_us":                  {perUs(layerCFG), "us"},
		"cartesian.setup_us":            {perUs(layerSetup), "us"},
		"lint.run_us":                   {perUs(layerLint), "us"},
		"lint.diags":                    {per(float64(lt.diags)), "count"},
		"core.self_ms":                  {perMs(self[layerAnalyze]), "ms"},
		"core.steps":                    {per(float64(lt.steps)), "count"},
		"core.widenings":                {per(float64(lt.widenings)), "count"},
		"core.configs":                  {per(float64(lt.configs)), "count"},
		"core.tops":                     {per(float64(lt.tops)), "count"},
		"core.insert_self_ms":           {perMs(phase("insert") + phase("commit") - phase("join") - phase("widen")), "ms"},
		"core.join_ms":                  {perMs(phase("join")), "ms"},
		"core.widen_ms":                 {perMs(phase("widen")), "ms"},
		"core.transfer_ms":              {perMs(phase("transfer")), "ms"},
		"core.sched_coalesced":          {per(float64(st.SchedCoalesced())), "count"},
		"core.sched_steals":             {per(float64(st.SchedSteals())), "count"},
		"core.shard_contention":         {per(float64(st.ShardContention())), "count"},
		"core.batched_saved":            {per(float64(st.BatchedSaved())), "count"},
		"cartesian.match_ms":            {perMs(total[layerMatch]), "ms"},
		"cartesian.match_calls":         {per(float64(lt.matchCalls)), "count"},
		"cartesian.match_success_ratio": {ratio(float64(lt.matchProved), float64(lt.matchCalls)), "ratio"},
		"cartesian.memo_hit_ratio":      {ratio(float64(lt.memoHits), float64(lt.memoHits+lt.memoMisses)), "ratio"},
		"hsm.prover_searches":           {per(float64(lt.proverSearches)), "count"},
		"hsm.prover_ms":                 {perMs(lt.proverNs), "ms"},
		"cg.closure_ms":                 {perMs(st.ClosureTime().Nanoseconds()), "ms"},
		"cg.maintain_ms":                {perMs(st.MaintainTime().Nanoseconds()), "ms"},
		"cg.incr_closures":              {per(float64(st.IncrClosures())), "count"},
		"cg.joins":                      {per(float64(st.Joins())), "count"},
		"cg.key_cache_hit_ratio":        {st.KeyCacheHitRate(), "ratio"},
		"cg.arena_hit_ratio":            {ratio(float64(st.ArenaHits()), float64(st.ArenaHits()+st.ArenaMisses())), "ratio"},
		"runtime.gc_cpu_fraction":       {ratio(cpu.gc, cpu.total), "ratio"},
		"oracle.check_ms":               {float64(oracleNs) / float64(len(traced)+len(plain)) / 1e6, "ms"},
		"trace.unattributed_share":      {ratio(float64(self[layerVerdict]), float64(total[layerVerdict])), "share"},
		"trace.overhead_share":          {ratio(float64(tracedNs-plainNs), float64(plainNs)), "share"},
	}
}

func rows(progs []program, plain []sample, classes [][numClasses]int) []programRow {
	byInput := make([][]float64, len(progs))
	for _, s := range plain {
		byInput[s.input] = append(byInput[s.input], float64(s.ns))
	}
	out := make([]programRow, len(progs))
	for i, p := range progs {
		sort.Float64s(byInput[i])
		out[i] = programRow{name: p.name, samples: len(byInput[i]), p50ms: percentile(byInput[i], 0.5) / 1e6, classes: classes[i]}
	}
	return out
}

// percentile interpolates linearly between the closest ranks of sorted xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuStats are the runtime's cumulative CPU-time estimates.
type cpuStats struct{ gc, total float64 }

func cpuSeconds() cpuStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuStats{s[0].Value.Float64(), s[1].Value.Float64()}
}

func (a cpuStats) sub(b cpuStats) cpuStats { return cpuStats{a.gc - b.gc, a.total - b.total} }

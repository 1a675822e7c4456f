// Command benchmark times psdf from MPL source to verdict — parse, check,
// CFG, cartesian client set-up, fixpoint, lint — on four workloads, and
// checks every verdict against an oracle that does not depend on the
// analyzer: the explicit-state simulator for safe programs, the injected
// bug for buggy ones. It is a closed loop with one client that analyzes one
// program at a time.
//
// Run it from the repository root:
//
//	bash benchmark/run.sh --workload paper --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload all --out benchmark/runs/mine
//	bash benchmark/run.sh --compare benchmark/runs/set1 benchmark/runs/set2
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end metrics of BENCHMARK.json; with --trace 1 they are its
// per-layer metrics, measured from spans the harness records around each
// layer call. The human-readable report goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics an untraced run prints.
var endToEnd = []metricSpec{
	{"programs_per_s", "programs/s", "higher"},
	{"verdict_p50_ms", "ms", "lower"},
	{"verdict_tail_ms", "ms", "lower"},
	{"exact_share", "share", "higher"},
	{"allocs_per_program", "allocs", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics a traced run prints: means per program unless
// the unit is a ratio or share.
var perLayer = []metricSpec{
	{"parser.parse_us", "us", "lower"},
	{"sem.check_us", "us", "lower"},
	{"cfg.build_us", "us", "lower"},
	{"cartesian.setup_us", "us", "lower"},
	{"lint.run_us", "us", "lower"},
	{"lint.diags", "count", "lower"},
	{"core.self_ms", "ms", "lower"},
	{"core.steps", "count", "lower"},
	{"core.widenings", "count", "lower"},
	{"core.configs", "count", "lower"},
	{"core.tops", "count", "lower"},
	{"core.insert_self_ms", "ms", "lower"},
	{"core.join_ms", "ms", "lower"},
	{"core.widen_ms", "ms", "lower"},
	{"core.transfer_ms", "ms", "lower"},
	{"core.sched_coalesced", "count", "higher"},
	{"core.sched_steals", "count", "lower"},
	{"core.shard_contention", "count", "lower"},
	{"core.batched_saved", "count", "higher"},
	{"cartesian.match_ms", "ms", "lower"},
	{"cartesian.match_calls", "count", "lower"},
	{"cartesian.match_success_ratio", "ratio", "higher"},
	{"cartesian.memo_hit_ratio", "ratio", "higher"},
	{"hsm.prover_searches", "count", "lower"},
	{"hsm.prover_ms", "ms", "lower"},
	{"cg.closure_ms", "ms", "lower"},
	{"cg.maintain_ms", "ms", "lower"},
	{"cg.incr_closures", "count", "lower"},
	{"cg.joins", "count", "lower"},
	{"cg.key_cache_hit_ratio", "ratio", "higher"},
	{"cg.arena_hit_ratio", "ratio", "higher"},
	{"runtime.gc_cpu_fraction", "ratio", "lower"},
	{"oracle.check_ms", "ms", "lower"},
	{"trace.unattributed_share", "share", "lower"},
	{"trace.overhead_share", "share", "lower"},
}

func main() {
	var (
		wname   = flag.String("workload", "", "workload: paper, paper-par, gen-safe, gen-buggy, or all (each in its own child process)")
		seed    = flag.Int64("seed", 1, "seed that orders each workload's programs")
		poolSd  = flag.Int64("pool", 1, "seed that draws the generated programs (kept at 1 by BENCHMARK.json)")
		seconds = flag.Float64("seconds", 20, "measure whole passes for about this long (at least one pass)")
		trace   = flag.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: untraced run printing the end-to-end metrics")
		out     = flag.String("out", "", "directory for the run's JSON record (and span JSONL when traced)")
		compare = flag.Bool("compare", false, "compare the run records in the directories given as arguments, with the bounds of ./BENCHMARK.json")
	)
	flag.Parse()
	if *compare {
		if err := compareDirs("BENCHMARK.json", flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace must be 0 or 1")
		os.Exit(2)
	}
	if *wname == "all" {
		os.Exit(runAll(os.Args[1:]))
	}
	// One client thread, plus one engine worker on paper-par.
	runtime.GOMAXPROCS(2)
	c := config{workload: *wname, seed: *seed, pool: *poolSd, seconds: *seconds, trace: *trace == 1}
	res, err := run(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	report(res)
	if *out != "" {
		if err := save(res, *out); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runAll runs every workload in its own child process, so that each
// reports its own peak RSS, and waits for each to exit.
func runAll(args []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, append(args, "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// report prints the run's summary and per-program rows to standard error.
func report(r *runResult) {
	e := os.Stderr
	fmt.Fprintf(e, "workload %s  seed %d  pool %d  workers %d  trace %v\n", r.Workload, r.Seed, r.Pool, r.Workers, r.Trace)
	fmt.Fprintf(e, "inputs_sha256 %s\n", r.InputsSHA256)
	fmt.Fprintf(e, "programs %d  passes %d  samples %d  attempted %d  failed %d  timeouts %d  tail p%g\n",
		r.Programs, r.Passes, r.Samples, r.Attempted, r.Failed, r.Timeouts, r.TailPercentile)
	fmt.Fprintf(e, "reference kernel %.4f ms: times below are scaled to a host where it takes 1 ms\n", r.RefMs)
	fmt.Fprint(e, "classes")
	for _, n := range classNames {
		fmt.Fprintf(e, "  %s %d", n, r.Classes[n])
	}
	fmt.Fprintln(e)
	rows := append([]programRow(nil), r.rows...)
	if len(rows) > 10 {
		fmt.Fprintln(e, "ten slowest programs:")
		sort.Slice(rows, func(i, j int) bool { return rows[i].p50ms > rows[j].p50ms })
		rows = rows[:10]
	}
	fmt.Fprintf(e, "  %-28s %7s %10s  %s\n", "program", "samples", "p50 ms", "classes")
	for _, row := range rows {
		fmt.Fprintf(e, "  %-28s %7d %10.3f ", row.name, row.samples, row.p50ms)
		for c, n := range row.classes {
			if n > 0 {
				fmt.Fprintf(e, " %s=%d", class(c), n)
			}
		}
		fmt.Fprintln(e)
	}
	specs := endToEnd
	if r.Trace {
		specs = perLayer
	}
	for _, s := range specs {
		fmt.Fprintf(e, "  %-32s %14.4f %s\n", s.Name, r.Metrics[s.Name].Value, s.Unit)
	}
}

// save writes the run record, and the spans of a traced run, into dir.
func save(r *runResult, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, r.Workload+"-seed"+strconv.FormatInt(r.Seed, 10))
	if r.Trace {
		base += "-trace"
		if err := r.spans.writeJSONL(base + ".spans.jsonl"); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".json", append(b, '\n'), 0o644)
}

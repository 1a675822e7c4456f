package core

import (
	"fmt"

	"repro/internal/obs"

	"repro/internal/cg"
)

// publishMetrics exports the converged engine's final counters and gauges
// into Options.Metrics. It runs after finish(), so the result slices and
// high-water marks are settled; series are labelled with the job id
// (Options.TracePID) so several analyses can share one registry.
func (e *engine) publishMetrics() {
	reg := e.opts.Metrics
	job := obs.Labels("job", fmt.Sprintf("%d", e.opts.TracePID))

	reg.NewCounterVec("psdf_engine_steps_total",
		"propagate steps executed", job).Add(e.steps.Load())
	reg.NewCounterVec("psdf_engine_widenings_total",
		"widening events (table entry replaced by a wider state)", job).Add(e.widenings.Load())
	reg.NewGaugeVec("psdf_engine_configs",
		"distinct pCFG configurations explored", job).Set(float64(e.res.Configs))
	reg.NewGaugeVec("psdf_engine_finals",
		"terminal all-at-exit configurations", job).Set(float64(len(e.res.Finals)))
	reg.NewGaugeVec("psdf_engine_tops",
		"give-up configurations in the result", job).Set(float64(len(e.res.Tops)))
	reg.NewGaugeVec("psdf_engine_matches",
		"distinct send-receive matches in the topology", job).Set(float64(len(e.res.Matches)))
	reg.NewGaugeVec("psdf_interned_keys",
		"distinct shape keys interned", job).Set(float64(e.in.size()))

	// Table occupancy per shard: the spread diagnoses shard-mask skew (one
	// hot shard serializes the workers).
	for si := range e.shards {
		n := len(e.shards[si].m)
		reg.NewGaugeVec("psdf_table_shard_entries", "configuration-table entries per shard",
			obs.Labels("job", fmt.Sprintf("%d", e.opts.TracePID), "shard", fmt.Sprintf("%d", si))).
			Set(float64(n))
	}

	// Scheduler high-water marks: depth (queued) and pending (queued or
	// running).
	depth, pending := e.sched.highWater()
	reg.NewGaugeVec("psdf_sched_queue_depth_max",
		"scheduler queue depth high-water mark", job).SetMax(float64(depth))
	reg.NewGaugeVec("psdf_sched_pending_max",
		"scheduler pending (queued or running) high-water mark", job).SetMax(float64(pending))

	if s := e.stats(); s != nil {
		s.RegisterMetrics(reg, job)
	}
}

// RegisterMatchMemoMetrics exposes a MatchMemo's hit/miss counters on reg
// as psdf_match_memo_total{job,result}. Function-backed so a render after
// the run (or from the -http listener mid-run) sees live values.
func RegisterMatchMemoMetrics(reg *obs.Registry, memo *MatchMemo, job string) {
	if reg == nil || memo == nil {
		return
	}
	hit := obs.Labels("job", job, "result", "hit")
	miss := obs.Labels("job", job, "result", "miss")
	reg.CounterFuncVec("psdf_match_memo_total", "match memo lookups", hit,
		func() float64 { return float64(memo.HitCount()) })
	reg.CounterFuncVec("psdf_match_memo_total", "match memo lookups", miss,
		func() float64 { return float64(memo.MissCount()) })
	reg.GaugeFuncVec("psdf_match_memo_entries", "match memo resident entries",
		obs.Labels("job", job), func() float64 { return float64(memo.Len()) })
}

// statsForMetrics is a compile-time assertion that cg.Stats implements the
// registration hook the engine publishes through.
var _ interface {
	RegisterMetrics(*obs.Registry, string)
} = (*cg.Stats)(nil)

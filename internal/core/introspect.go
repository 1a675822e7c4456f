package core

// Live engine introspection (DESIGN.md §14): progress sampling for the
// /statusz and /metrics surfaces, the stall watchdog over the fixpoint,
// dumps of the tracer's retained events, and pprof goroutine labels.
// Everything here is nil-guarded and opt-in — with Options.Log, Progress
// and StallTimeout unset the engine's hot paths execute exactly as before.

import (
	"context"
	"log/slog"
	"runtime/pprof"
	"strconv"
	"time"

	"repro/internal/obs"
)

// jobLabel names this analysis in logs and pprof labels.
func (e *engine) jobLabel() string {
	if e.opts.Name != "" {
		return e.opts.Name
	}
	return "job-" + strconv.Itoa(e.opts.TracePID)
}

// progressCount is the watchdog's monotone progress reading: propagate
// steps plus widenings plus distinct configurations discovered. Any of the
// three moving means the fixpoint is advancing. With forceStall the
// reading is pinned to 0, so the watchdog must fire after StallTimeout —
// the deterministic test path for the stall machinery.
func (e *engine) progressCount() int64 {
	if e.opts.forceStall {
		return 0
	}
	return e.steps.Load() + e.widenings.Load() + int64(e.in.size())
}

// sampleProgress builds a point-in-time progress snapshot. Safe to call
// from any goroutine once the worklist exists: everything it reads is
// atomic or mutex-protected.
func (e *engine) sampleProgress() obs.Progress {
	p := obs.Progress{
		Job:       e.opts.TracePID,
		Name:      e.opts.Name,
		Steps:     e.steps.Load(),
		Configs:   int64(e.in.size()),
		Widenings: e.widenings.Load(),
		GiveUps:   e.giveUps.Load(),
		Joins:     e.joins.Load(),
		Coalesced: e.work.coalesced.Load(),
		ElapsedNs: time.Since(e.started).Nanoseconds(),
	}
	if s := e.stats(); s != nil {
		p.CG = map[string]int64{
			"full_closures":         s.FullClosures(),
			"incr_closures":         s.IncrClosures(),
			"full_closures_avoided": s.FullClosuresAvoided(),
			"arena_hits":            s.ArenaHits(),
			"arena_misses":          s.ArenaMisses(),
			"joins":                 s.Joins(),
			"clones_avoided":        s.ClonesAvoided(),
			"cow_materializations":  s.CoWMaterializations(),
			"key_cache_hits":        s.KeyCacheHits(),
			"key_cache_misses":      s.KeyCacheMisses(),
			"sched_coalesced":       s.SchedCoalesced(),
			"closure_ns":            int64(s.ClosureTime()),
			"maintain_ns":           int64(s.MaintainTime()),
		}
	}
	if memo := e.memo; memo != nil {
		p.MemoHits = int64(memo.HitCount())
		p.MemoMisses = int64(memo.MissCount())
		p.MemoHitRate = memo.HitRate()
		p.MemoEntries = int64(memo.Len())
	}
	// Prover lane: the cartesian matcher keeps these as atomics, so the
	// sampler can read them mid-search (interface-asserted, like Memo).
	if pp, ok := e.opts.Matcher.(interface {
		ProverSearches() int64
		ProverSearchNs() int64
	}); ok {
		p.ProverSearches = pp.ProverSearches()
		p.ProverNs = pp.ProverSearchNs()
	}
	p.Pending = e.work.pending.Load()
	p.Queued = e.work.queued.Load()
	return p
}

// registerProgress publishes this analysis's live sampler on the tracker.
// Called after the worklist is constructed, so the sampler never observes
// a half-built engine.
func (e *engine) registerProgress() {
	if e.opts.Progress == nil {
		return
	}
	e.opts.Progress.Register(e.opts.TracePID, e.sampleProgress)
}

// finishProgress replaces the live sampler with the final snapshot (the
// end-of-run totals /statusz and /metrics keep serving after
// convergence). It runs on the engine goroutine, the only reader of the
// worklist's high-water marks.
func (e *engine) finishProgress() {
	if e.opts.Progress == nil {
		return
	}
	final := e.sampleProgress()
	// The run is over: nothing is pending, and the totals are the
	// result's (finish() has already folded the counters into e.res).
	final.Steps = int64(e.res.Steps)
	final.Configs = int64(e.res.Configs)
	final.Widenings = int64(e.res.Widenings)
	final.Pending = 0
	final.Queued = 0
	final.Finals = int64(len(e.res.Finals))
	final.Tops = int64(len(e.res.Tops))
	final.Matches = int64(len(e.res.Matches))
	final.QueuedMax = e.work.depthHW
	final.PendingMax = e.work.pendingHW
	e.opts.Progress.Finish(e.opts.TracePID, final)
}

// armWatchdog starts the stall watchdog over the fixpoint when
// Options.StallTimeout is set. The returned watchdog (nil when disabled)
// must be settled with settleWatchdog after the run.
func (e *engine) armWatchdog() *obs.Watchdog {
	if e.opts.StallTimeout <= 0 {
		return nil
	}
	wd := obs.NewWatchdog(e.opts.StallTimeout, e.progressCount, func(rep obs.StallReport) {
		if lg := e.opts.Log; lg != nil {
			lg.Error("analysis stalled: no fixpoint progress within deadline",
				"job", e.opts.TracePID, "name", e.jobLabel(),
				"stalled_ms", rep.Stalled.Milliseconds(),
				"steps", e.steps.Load(), "configs", e.in.size(),
				"widenings", e.widenings.Load())
		}
		e.dumpFlight("stall: no progress for " + rep.Stalled.String())
	})
	wd.Start(0)
	return wd
}

// settleWatchdog finishes the watchdog's run. With forceStall the engine
// holds the (already converged) run open until the watchdog fires, making
// forced-stall tests deterministic: exactly one dump, regardless of how
// fast the workload converged.
func (e *engine) settleWatchdog(wd *obs.Watchdog) {
	if wd == nil {
		return
	}
	if e.opts.forceStall {
		<-wd.FiredChan()
	}
	wd.Stop()
}

// dumpFlight writes the tracer's retained events to Options.StallDump,
// after a dump marker carrying reason, at most once per analysis — the
// watchdog and the step-budget abort share the once, so a stalled run that
// then exhausts its budget still produces one dump.
func (e *engine) dumpFlight(reason string) {
	e.dumpOnce.Do(func() {
		if !e.opts.Tracer.Retaining() || e.opts.StallDump == nil {
			return
		}
		e.mark(obs.PhaseDump, 0, "", reason)
		if err := obs.Dump(e.opts.StallDump, e.opts.Tracer); err != nil && e.opts.Log != nil {
			e.opts.Log.Error("trace dump failed", "job", e.opts.TracePID, "err", err)
		}
	})
}

// withProfileLabels runs fn under pprof goroutine labels when
// Options.ProfileLabels is set; otherwise it calls fn directly.
func (e *engine) withProfileLabels(phase string, fn func()) {
	if !e.opts.ProfileLabels {
		fn()
		return
	}
	labels := pprof.Labels("psdf_job", e.jobLabel(), "psdf_phase", phase)
	pprof.Do(context.Background(), labels, func(context.Context) { fn() })
}

// logStart/logDone are the engine's lifecycle log lines.
func (e *engine) logStart() {
	if lg := e.opts.Log; lg != nil {
		lg.Info("analysis started", "job", e.opts.TracePID, "name", e.jobLabel())
	}
}

// logState narrates one table update at debug level. Callers check
// Options.Log first, so the disabled hot path is one nil check; the state
// is rendered only when a debug handler is listening.
func (e *engine) logState(msg, key string, st *State) {
	if lg := e.opts.Log; lg.Enabled(context.Background(), slog.LevelDebug) {
		lg.Debug(msg, "job", e.opts.TracePID, "key", key, "state", st.String())
	}
}

func (e *engine) logDone() {
	lg := e.opts.Log
	if lg == nil {
		return
	}
	clean := e.res.Clean()
	attrs := []any{"job", e.opts.TracePID, "name", e.jobLabel(),
		"elapsed_ms", time.Since(e.started).Milliseconds(),
		"steps", e.res.Steps, "configs", e.res.Configs,
		"widenings", e.res.Widenings, "give_ups", e.giveUps.Load(),
		"matches", len(e.res.Matches), "clean", clean}
	if clean {
		lg.Info("analysis converged", attrs...)
	} else {
		lg.Warn("analysis converged with give-ups", append(attrs, "top_reasons", e.res.TopReasons())...)
	}
}

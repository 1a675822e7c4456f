// External test package: building real matchers requires the client
// packages, which import core.
package core_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
)

// lockedBuf is an io.Writer safe to hand to the engine's StallDump and read
// after Analyze returns (the dump happens on the watchdog goroutine).
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestForcedStallDumpsOnce drives the full stall path deterministically:
// ForceStall pins the watchdog's progress reading at zero, so the watchdog
// must fire after StallTimeout and dump the flight recorder exactly once —
// while the analysis result stays correct and clean.
func TestForcedStallDumpsOnce(t *testing.T) {
	_, g := bench.Stencil1D().Parse()
	var dump lockedBuf
	res := analyzeWith(t, g, core.Options{
		StallTimeout:   50 * time.Millisecond,
		ForceStall:     true,
		FlightRecorder: obs.NewFlightRecorder(1024),
		StallDump:      &dump,
	})
	if !res.Clean() {
		t.Fatalf("forced stall must not perturb the analysis: %v", res.TopReasons())
	}
	out := dump.String()
	if out == "" {
		t.Fatal("forced stall produced no flight-recorder dump")
	}
	if n := strings.Count(out, `"kind":"dump"`); n != 1 {
		t.Errorf("want exactly 1 dump marker event, got %d\n%s", n, out)
	}
	if n := strings.Count(out, `"kind":"stall"`); n != 1 {
		t.Errorf("want exactly 1 stall event, got %d", n)
	}
	// The recorder must carry the recent dequeue/step/commit history.
	for _, kind := range []string{`"kind":"dequeue"`, `"kind":"step"`, `"kind":"commit"`} {
		if !strings.Contains(out, kind) {
			t.Errorf("dump missing %s events:\n%s", kind, out)
		}
	}
	// Every line is one JSON event; seqs are dense, so the dump is bounded
	// by the ring capacity.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) > 1024 {
		t.Errorf("dump exceeds ring capacity: %d lines", len(lines))
	}
}

// TestWatchdogQuietOnWorkloads runs every paper workload under a generous
// watchdog and asserts it never fires: real convergence is progress, and a
// healthy run must not produce a dump.
func TestWatchdogQuietOnWorkloads(t *testing.T) {
	for _, w := range bench.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			_, g := w.Parse()
			var dump lockedBuf
			res := analyzeWith(t, g, core.Options{
				StallTimeout:   time.Minute,
				FlightRecorder: obs.NewFlightRecorder(256),
				StallDump:      &dump,
			})
			if res == nil {
				t.Fatal("nil result")
			}
			if out := dump.String(); out != "" {
				t.Errorf("watchdog fired on a healthy run:\n%s", out)
			}
		})
	}
}

// TestProgressTrackerLiveAndFinal samples /statusz-style progress snapshots
// concurrently with a running analysis: the visited counters must be
// monotonically nondecreasing across samples, and the final snapshot must
// agree with the analysis result. Under -race this covers the only
// concurrency inside an analysis: the sampler reading a live fixpoint.
func TestProgressTrackerLiveAndFinal(t *testing.T) {
	_, g := bench.TransposeRect().Parse()
	tracker := obs.NewProgressTracker()
	done := make(chan *core.Result, 1)
	go func() {
		res := analyzeWith(t, g, core.Options{
			Progress: tracker,
			TracePID: 1,
			Name:     "transpose-rect",
		})
		done <- res
	}()

	var lastSteps, lastConfigs, lastWiden int64
	samples := 0
	sample := func() {
		for _, p := range tracker.Snapshot() {
			if p.Job != 1 {
				continue
			}
			samples++
			if p.Steps < lastSteps || p.Configs < lastConfigs || p.Widenings < lastWiden {
				t.Errorf("progress went backwards: steps %d->%d configs %d->%d widenings %d->%d",
					lastSteps, p.Steps, lastConfigs, p.Configs, lastWiden, p.Widenings)
			}
			lastSteps, lastConfigs, lastWiden = p.Steps, p.Configs, p.Widenings
			if p.Pending < 0 || p.Queued < 0 {
				t.Errorf("negative frontier: pending=%d queued=%d", p.Pending, p.Queued)
			}
		}
	}
	var res *core.Result
	for res == nil {
		select {
		case res = <-done:
		default:
			sample()
		}
	}
	// A fast convergence can beat the first live sample to the sampler
	// registration; the final snapshot flows through the same Snapshot
	// path, so fold it into the monotonicity run rather than flaking.
	if samples == 0 {
		sample()
	}
	if samples == 0 {
		t.Fatal("never observed a progress snapshot")
	}

	snap := tracker.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("want 1 job in final snapshot, got %d", len(snap))
	}
	final := snap[0]
	if !final.Done {
		t.Error("final snapshot not marked done")
	}
	if final.Steps != int64(res.Steps) || final.Configs != int64(res.Configs) || final.Widenings != int64(res.Widenings) {
		t.Errorf("final snapshot (steps=%d configs=%d widenings=%d) disagrees with result (steps=%d configs=%d widenings=%d)",
			final.Steps, final.Configs, final.Widenings, res.Steps, res.Configs, res.Widenings)
	}
	if final.Pending != 0 || final.Queued != 0 {
		t.Errorf("final snapshot still shows frontier: pending=%d queued=%d", final.Pending, final.Queued)
	}
	if final.Name != "transpose-rect" {
		t.Errorf("final snapshot labels wrong: name=%q", final.Name)
	}
}

// TestIntrospectionDisabledIdentical: with every introspection option unset
// the engine must produce byte-identical results to a fully instrumented
// run — observability only observes.
func TestIntrospectionDisabledIdentical(t *testing.T) {
	_, g := bench.Fig7Shift().Parse()
	plain := analyzeWith(t, g, core.Options{})
	_, g2 := bench.Fig7Shift().Parse()
	var dump lockedBuf
	instrumented := analyzeWith(t, g2, core.Options{
		Progress:       obs.NewProgressTracker(),
		FlightRecorder: obs.NewFlightRecorder(128),
		StallTimeout:   time.Minute,
		StallDump:      &dump,
		ProfileLabels:  true,
	})
	if got, want := countedSignature(instrumented), countedSignature(plain); got != want {
		t.Errorf("instrumentation changed the result:\n got: %s\nwant: %s", got, want)
	}
}

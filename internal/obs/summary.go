package obs

import (
	"fmt"
	"sort"
	"time"
)

// PhaseCost is one row of a trace summary: the accumulated self time of a
// phase (span time minus time spent in spans nested inside it) next to its
// inclusive total.
type PhaseCost struct {
	Phase     Phase
	Count     int64
	Self      time.Duration // exclusive: nested spans subtracted
	Inclusive time.Duration
}

// KeyCost attributes cost to one configuration (pCFG-node shape key).
type KeyCost struct {
	Key   string
	Count int64
	Self  time.Duration
}

// Summary is the digest `psdf trace` prints: wall-clock extent, per-phase
// self/inclusive costs, and the hottest configurations by self time.
type Summary struct {
	Wall     time.Duration
	Events   int
	Phases   []PhaseCost // sorted by Self descending
	HotKeys  []KeyCost   // configurations, sorted by Self descending (all; callers cap)
	SelfSum  time.Duration
	Coverage float64 // SelfSum / sum of per-lane extents, in [0,1]
}

// Summarize computes self times with a per-lane span stack: events are
// walked in SortEvents order (start ascending, enclosing spans first), and
// each span's duration is charged to itself minus its children, so
// overlapping nested spans are never double-counted. Lanes at or above
// ProverTid are excluded from self-time accounting (worker-lane match spans
// already enclose prover time; see ProverTid).
func Summarize(evs []Event) Summary {
	evs = append([]Event(nil), evs...)
	SortEvents(evs)

	var (
		phSelf  [numPhases]time.Duration
		phIncl  [numPhases]time.Duration
		phCount [numPhases]int64
		keys                  = map[string]*KeyCost{}
		minS    time.Duration = -1
		maxE    time.Duration
		laneExt = map[[2]int]time.Duration{} // lane -> covered extent
	)

	type frame struct {
		end   time.Duration
		idx   int // event index
		child time.Duration
	}
	var stack []frame
	flush := func(f frame) {
		ev := &evs[f.idx]
		self := ev.Dur - f.child
		if self < 0 {
			self = 0
		}
		phSelf[ev.Phase] += self
		if ev.Key != "" && ev.Phase.keyedByConfig() {
			kc := keys[ev.Key]
			if kc == nil {
				kc = &KeyCost{Key: ev.Key}
				keys[ev.Key] = kc
			}
			kc.Count++
			kc.Self += self
		}
	}

	prevLane := [2]int{-1 << 30, 0}
	var laneStart, laneEnd time.Duration
	closeLane := func() {
		for len(stack) > 0 {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			flush(f)
			if len(stack) > 0 {
				stack[len(stack)-1].child += evs[f.idx].Dur
			}
		}
		if prevLane[0] != -1<<30 && prevLane[1] < ProverTid && laneEnd > laneStart {
			laneExt[prevLane] += laneEnd - laneStart
		}
	}

	for i := range evs {
		ev := &evs[i]
		if minS < 0 || ev.Start < minS {
			minS = ev.Start
		}
		if ev.End() > maxE {
			maxE = ev.End()
		}
		phIncl[ev.Phase] += ev.Dur
		phCount[ev.Phase]++
		lane := [2]int{ev.Pid, ev.Tid}
		if lane != prevLane {
			closeLane()
			prevLane = lane
			laneStart, laneEnd = ev.Start, ev.End()
		} else {
			if ev.End() > laneEnd {
				laneEnd = ev.End()
			}
		}
		if ev.Tid >= ProverTid {
			continue // attributed separately; inclusive totals above suffice
		}
		// Pop frames this span does not nest inside.
		for len(stack) > 0 && stack[len(stack)-1].end <= ev.Start {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			flush(f)
			if len(stack) > 0 {
				stack[len(stack)-1].child += evs[f.idx].Dur
			}
		}
		stack = append(stack, frame{end: ev.End(), idx: i})
	}
	closeLane()

	s := Summary{Events: len(evs)}
	if minS >= 0 {
		s.Wall = maxE - minS
	}
	for i := 0; i < numPhases; i++ {
		if phCount[i] == 0 {
			continue
		}
		s.Phases = append(s.Phases, PhaseCost{
			Phase: Phase(i), Count: phCount[i],
			Self: phSelf[i], Inclusive: phIncl[i],
		})
		s.SelfSum += phSelf[i]
	}
	sort.Slice(s.Phases, func(i, j int) bool {
		if s.Phases[i].Self != s.Phases[j].Self {
			return s.Phases[i].Self > s.Phases[j].Self
		}
		return s.Phases[i].Phase < s.Phases[j].Phase
	})
	for _, kc := range keys {
		s.HotKeys = append(s.HotKeys, *kc)
	}
	sort.Slice(s.HotKeys, func(i, j int) bool {
		if s.HotKeys[i].Self != s.HotKeys[j].Self {
			return s.HotKeys[i].Self > s.HotKeys[j].Self
		}
		return s.HotKeys[i].Key < s.HotKeys[j].Key
	})
	var ext time.Duration
	for _, e := range laneExt {
		ext += e
	}
	if ext > 0 {
		s.Coverage = float64(s.SelfSum) / float64(ext)
	}
	return s
}

// keyedByConfig reports whether p's events carry a configuration's shape
// key as their key. Analyze spans carry the job name, widening failures a
// bound pair and prover spans the searched terms, so none of them is a
// configuration to rank.
func (p Phase) keyedByConfig() bool {
	switch p {
	case PhaseStep, PhaseTransfer, PhaseMatch, PhaseSplit, PhaseInsert,
		PhaseJoin, PhaseWiden, PhaseCommit, PhaseCanon, PhaseGiveup, PhaseEnrich:
		return true
	}
	return false
}

// TotalsByPid splits a retained event stream into per-job (pid) phase
// totals — how AnalyzeAll callers that share one retaining tracer across
// jobs recover a per-job breakdown.
func TotalsByPid(evs []Event) map[int]PhaseTotals {
	out := map[int]PhaseTotals{}
	for i := range evs {
		ev := &evs[i]
		t := out[ev.Pid]
		if t == nil {
			t = PhaseTotals{}
			out[ev.Pid] = t
		}
		s := t[ev.Phase.String()]
		s.Count++
		s.Total += ev.Dur
		t[ev.Phase.String()] = s
	}
	return out
}

// Check validates a trace's internal consistency, returning a list of
// problems (empty = valid). It verifies spans are non-negative and within
// the trace extent, nesting is well-formed per lane (no partial overlap),
// and self-time coverage of the engine lanes is at least minCoverage
// (0 disables the coverage check).
func Check(evs []Event, minCoverage float64) []string {
	var probs []string
	evs = append([]Event(nil), evs...)
	SortEvents(evs)
	if len(evs) == 0 {
		return []string{"trace contains no span events"}
	}
	type open struct {
		end time.Duration
		i   int
	}
	var stack []open
	prevLane := [2]int{-1 << 30, 0}
	for i := range evs {
		ev := &evs[i]
		if ev.Dur < 0 || ev.Start < 0 {
			probs = append(probs, fmt.Sprintf("event %d (%s pid=%d tid=%d): negative start or duration", i, ev.Phase, ev.Pid, ev.Tid))
		}
		lane := [2]int{ev.Pid, ev.Tid}
		if lane != prevLane {
			stack = stack[:0]
			prevLane = lane
		}
		for len(stack) > 0 && stack[len(stack)-1].end <= ev.Start {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 && ev.End() > stack[len(stack)-1].end {
			p := &evs[stack[len(stack)-1].i]
			probs = append(probs, fmt.Sprintf(
				"event %d (%s pid=%d tid=%d [%v,%v]) partially overlaps %s [%v,%v] on the same lane",
				i, ev.Phase, ev.Pid, ev.Tid, ev.Start, ev.End(), p.Phase, p.Start, p.End()))
		}
		stack = append(stack, open{end: ev.End(), i: i})
	}
	if minCoverage > 0 {
		s := Summarize(evs)
		if s.Coverage < minCoverage {
			probs = append(probs, fmt.Sprintf(
				"self-time coverage %.1f%% of engine-lane extent is below the %.1f%% floor",
				s.Coverage*100, minCoverage*100))
		}
	}
	return probs
}

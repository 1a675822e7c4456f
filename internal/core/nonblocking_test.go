package core_test

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/clients/symbolic"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/validate"
)

// analyzeNB parses and analyzes src with non-blocking sends enabled.
func analyzeNB(t *testing.T, src string) (*core.Result, *cfg.Graph) {
	t.Helper()
	prog, err := parser.Parse("nb.mpl", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	g := cfg.Build(prog)
	res, err := core.Analyze(g, core.Options{Matcher: &symbolic.Matcher{}, NonBlockingSends: true})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return res, g
}

// The send-first shift: with blocking sends this needs the pipeline
// analysis; with the Section X extension the aggregated send matches the
// whole receiver set in one step.
const sendFirstShiftSrc = `
assume np >= 3
if id <= np - 2 then
  send x -> id + 1
end
if id >= 1 then
  recv y <- id - 1
end
`

func TestNonBlockingSendFirstShift(t *testing.T) {
	res, g := analyzeNB(t, sendFirstShiftSrc)
	if !res.Clean() {
		t.Fatalf("not clean: %v", res.TopReasons())
	}
	if len(res.Matches) != 1 {
		t.Fatalf("matches = %v, want 1 aggregated match", res.Matches)
	}
	m := res.Matches[0]
	if m.Sender.String() != "[0..np - 2]" || m.Receiver.String() != "[1..np - 1]" {
		t.Errorf("match = %v -> %v", m.Sender, m.Receiver)
	}
	for _, np := range []int{3, 5, 11} {
		if err := validate.Check(g, res, np, nil); err != nil {
			t.Errorf("np=%d: %v", np, err)
		}
	}
}

// Fan-out with non-blocking sends: the root's loop aggregates into one
// pending fan, matched set-level by the workers.
const nbFanoutSrc = `
assume np >= 3
if id == 0 then
  x := 7
  for i := 1 to np - 1 do
    send x -> i
  end
else
  recv y <- 0
  print y
end
`

func TestNonBlockingFanout(t *testing.T) {
	res, g := analyzeNB(t, nbFanoutSrc)
	if !res.Clean() {
		t.Fatalf("not clean: %v", res.TopReasons())
	}
	if len(res.Matches) != 1 {
		t.Fatalf("matches = %v", res.Matches)
	}
	m := res.Matches[0]
	if m.Sender.String() != "[0]" {
		t.Errorf("sender = %v", m.Sender)
	}
	// The frozen payload must still reach the receivers.
	for _, p := range res.Prints {
		if !p.Known || p.Val != 7 {
			t.Errorf("print = %+v, want 7", p)
		}
	}
	for _, np := range []int{3, 6, 9} {
		if err := validate.Check(g, res, np, nil); err != nil {
			t.Errorf("np=%d: %v", np, err)
		}
	}
}

// A fixed-width 2-D stencil (nx = 4 columns, symbolic row count): the
// column shift has stride 4, which the blocking pipeline analysis cannot
// summarize (its widening generalizes unit strides); with aggregated sends
// it is a single set-level match.
const stencil2DSrc = `
assume nx == 4
assume np == 4 * ny
assume ny >= 3
assume np >= 12
if id <= np - 5 then
  send x -> id + 4
end
if id >= 4 then
  recv y <- id - 4
end
`

func TestNonBlockingFixedWidth2DShift(t *testing.T) {
	res, g := analyzeNB(t, stencil2DSrc)
	if !res.Clean() {
		t.Fatalf("not clean: %v", res.TopReasons())
	}
	if len(res.Matches) != 1 {
		t.Fatalf("matches = %v", res.Matches)
	}
	m := res.Matches[0]
	if m.Sender.String() != "[0..np - 5]" || m.Receiver.String() != "[4..np - 1]" {
		t.Errorf("match = %v -> %v", m.Sender, m.Receiver)
	}
	for _, ny := range []int{3, 5} {
		if err := validate.Check(g, res, 4*ny, map[string]int64{"nx": 4, "ny": int64(ny)}); err != nil {
			t.Errorf("ny=%d: %v", ny, err)
		}
	}
}

// Blocking-mode workloads still analyze identically under the extension
// (recvs block; blocked-send matching still applies when issue fails).
func TestNonBlockingSubsumesBlockingWorkloads(t *testing.T) {
	res, g := analyzeNB(t, fig5Src)
	if !res.Clean() {
		t.Fatalf("fig5 under non-blocking: %v", res.TopReasons())
	}
	if err := validate.Check(g, res, 7, nil); err != nil {
		t.Errorf("fig5 np=7: %v", err)
	}
	res, g = analyzeNB(t, fig7Src)
	if !res.Clean() {
		t.Fatalf("fig7 under non-blocking: %v", res.TopReasons())
	}
	if err := validate.Check(g, res, 9, nil); err != nil {
		t.Errorf("fig7 np=9: %v", err)
	}
}

// An unreceived message is visible as a leftover pending send in the final
// configuration (an exact message-leak witness).
const nbLeakSrc = `
assume np >= 2
if id == 0 then
  send x -> 1
end
`

func TestNonBlockingLeakVisible(t *testing.T) {
	res, _ := analyzeNB(t, nbLeakSrc)
	if len(res.Finals) == 0 {
		t.Fatalf("no finals; tops=%v", res.TopReasons())
	}
	leaks := 0
	for _, f := range res.Finals {
		leaks += len(f.Pending)
	}
	if leaks == 0 {
		t.Error("leftover pending send not reported in finals")
	}
}

// FIFO: two sends on the same channel deliver in order, so the receiver's
// variables reflect the respective payloads.
const nbFIFOSrc = `
assume np >= 2
if id == 0 then
  a := 10
  send a -> 1
  b := 20
  send b -> 1
elif id == 1 then
  recv x <- 0
  recv y <- 0
  print x
  print y
end
`

func TestNonBlockingFIFO(t *testing.T) {
	res, g := analyzeNB(t, nbFIFOSrc)
	if !res.Clean() {
		t.Fatalf("not clean: %v", res.TopReasons())
	}
	want := map[int64]bool{}
	for _, p := range res.Prints {
		if !p.Known {
			t.Errorf("print not constant: %+v", p)
			continue
		}
		want[p.Val] = true
	}
	if !want[10] || !want[20] {
		t.Errorf("prints = %v, want 10 and 20", res.Prints)
	}
	if err := validate.Check(g, res, 4, nil); err != nil {
		t.Errorf("validate: %v", err)
	}
}

// A bidirectional send-first exchange: both directions' sends aggregate
// into separate pending records matched independently.
const nbBidirSrc = `
assume np >= 4
if id <= np - 2 then
  send a -> id + 1
end
if id >= 1 then
  send b -> id - 1
end
if id >= 1 then
  recv x <- id - 1
end
if id <= np - 2 then
  recv y <- id + 1
end
`

func TestNonBlockingBidirectionalExchange(t *testing.T) {
	res, g := analyzeNB(t, nbBidirSrc)
	if !res.Clean() {
		t.Fatalf("not clean: %v", res.TopReasons())
	}
	if len(res.Matches) != 2 {
		t.Fatalf("matches = %v, want 2 (one per direction)", res.Matches)
	}
	dirs := map[string]bool{}
	for _, m := range res.Matches {
		dirs[m.Sender.String()+"->"+m.Receiver.String()] = true
	}
	if !dirs["[0..np - 2]->[1..np - 1]"] || !dirs["[1..np - 1]->[0..np - 2]"] {
		t.Errorf("directions = %v", dirs)
	}
	for _, np := range []int{4, 9} {
		if err := validate.Check(g, res, np, nil); err != nil {
			t.Errorf("np=%d: %v", np, err)
		}
	}
}

// Two pending fans from different roots are kept apart and matched to the
// correct receivers (src expression selects among pendings).
const nbTwoRootsSrc = `
assume np >= 6
if id == 0 then
  for i := 2 to 3 do
    send a -> i
  end
elif id == 1 then
  for i := 4 to 5 do
    send b -> i
  end
elif id <= 3 then
  recv x <- 0
else
  if id <= 5 then
    recv x <- 1
  end
end
`

func TestNonBlockingTwoFans(t *testing.T) {
	res, g := analyzeNB(t, nbTwoRootsSrc)
	if !res.Clean() {
		t.Fatalf("not clean: %v", res.TopReasons())
	}
	if len(res.Matches) != 2 {
		t.Fatalf("matches = %v, want 2", res.Matches)
	}
	for _, np := range []int{6, 8} {
		if err := validate.Check(g, res, np, nil); err != nil {
			t.Errorf("np=%d: %v", np, err)
		}
	}
}

// nbGlobalWitnessSrc sends a per-set variable whose one equality witness is
// a never-written global named with a "ps" prefix.
const nbGlobalWitnessSrc = `
assume np >= 3
assume psize >= 1
if id == 0 then
  x := psize
  for i := 1 to np - 1 do
    send x -> i
  end
else
  recv y <- 0
  print y
end
`

// TestNonBlockingFreezesToGlobalWitness checks that a pending send freezes
// its payload to a global equality witness whose name merely starts with
// "ps" (psize) instead of minting a frozen twin: only per-set variables
// ps<id>.<name> are refused as witnesses.
func TestNonBlockingFreezesToGlobalWitness(t *testing.T) {
	prog, err := parser.Parse("nb.mpl", nbGlobalWitnessSrc)
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Build(prog)
	vals := map[string]bool{}
	opts := core.WithRevisionHook(core.Options{Matcher: &symbolic.Matcher{}, NonBlockingSends: true}, func(_ string, st *core.State) {
		for _, p := range st.Pending {
			if p.ValOK {
				vals[p.Val.String()] = true
			}
		}
	})
	res, err := core.Analyze(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("not clean: %v", res.TopReasons())
	}
	if !vals["psize"] || len(vals) != 1 {
		t.Errorf("pending payloads %v, want psize only", vals)
	}
	for _, np := range []int{3, 5} {
		if err := validate.Check(g, res, np, map[string]int64{"psize": 2}); err != nil {
			t.Errorf("np=%d: %v", np, err)
		}
	}
}

// TestNonBlockingPendingFragmentationGivesUp: pending-send records count
// against MaxSets together with the process sets, so this program, whose
// pending records once grew a new configuration on nearly every step until
// the step budget, ends with a ⊤ well inside 1,000 steps. The budget is
// set to 1,000, so a missing guard fails here with "step budget exhausted"
// instead of running for minutes.
func TestNonBlockingPendingFragmentationGivesUp(t *testing.T) {
	g := parseFile(t, "../../testdata/diffbugs/stale_witness_paramnp.mpl")
	res := analyzeWith(t, g, core.Options{NonBlockingSends: true, MaxSteps: 1000})
	if res.Steps >= 1000 {
		t.Errorf("steps = %d, want fewer than 1000", res.Steps)
	}
	if len(res.Tops) == 0 {
		t.Fatal("no ⊤ verdict")
	}
	for _, why := range res.TopReasons() {
		if why == "step budget exhausted" {
			t.Errorf("run ended on the step budget: %v", res.TopReasons())
		}
	}
}

package core_test

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/clients/symbolic"
	"repro/internal/core"
	"repro/internal/parser"
)

// The step budget stops runaway analyses with an explicit ⊤ rather than
// hanging.
func TestMaxStepsGuard(t *testing.T) {
	prog, err := parser.Parse("t.mpl", fig5Src)
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Build(prog)
	res, err := core.Analyze(g, core.Options{Matcher: &symbolic.Matcher{}, MaxSteps: 5})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res.TopReasons() {
		if strings.Contains(r, "step budget") {
			found = true
		}
	}
	if !found {
		t.Errorf("step budget not reported: %v", res.TopReasons())
	}
}

// A visit budget of 1 forces immediate non-convergence on any loop.
func TestMaxVisitsGuard(t *testing.T) {
	prog, err := parser.Parse("t.mpl", fig5Src)
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Build(prog)
	res, err := core.Analyze(g, core.Options{Matcher: &symbolic.Matcher{}, MaxVisits: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean() {
		t.Error("expected non-convergence with MaxVisits=1")
	}
}

// The set-count guard converts fragmentation into a diagnosable ⊤.
func TestMaxSetsGuard(t *testing.T) {
	prog, err := parser.Parse("t.mpl", fig7Src)
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Build(prog)
	res, err := core.Analyze(g, core.Options{Matcher: &symbolic.Matcher{}, MaxSets: 2})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res.TopReasons() {
		if strings.Contains(r, "fragmented") {
			found = true
		}
	}
	if !found {
		t.Errorf("fragmentation guard not reported: %v", res.TopReasons())
	}
}

// Missing matcher is a configuration error, not a panic.
func TestMissingMatcher(t *testing.T) {
	prog, _ := parser.Parse("t.mpl", "x := 1")
	g := cfg.Build(prog)
	if _, err := core.Analyze(g, core.Options{}); err == nil {
		t.Error("nil matcher accepted")
	}
}

// Debug-level logs narrate the exploration.
func TestTraceOutput(t *testing.T) {
	prog, _ := parser.Parse("t.mpl", fig2Src)
	g := cfg.Build(prog)
	var buf bytes.Buffer
	lg := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	res, err := core.Analyze(g, core.Options{Matcher: &symbolic.Matcher{}, Log: lg})
	if err != nil || !res.Clean() {
		t.Fatalf("%v %v", err, res.TopReasons())
	}
	out := buf.String()
	if !strings.Contains(out, "new") || !strings.Contains(out, "[0..np - 1]") {
		t.Errorf("trace missing content:\n%s", out)
	}
}

// The pCFG dot rendering includes configurations and a highlighted match.
func TestPCFGDot(t *testing.T) {
	prog, _ := parser.Parse("t.mpl", fig2Src)
	g := cfg.Build(prog)
	res, err := core.Analyze(g, core.Options{Matcher: &symbolic.Matcher{}})
	if err != nil {
		t.Fatal(err)
	}
	dot := res.PCFGDot("fig2")
	for _, w := range []string{"digraph", "start", "match", "color=blue"} {
		if !strings.Contains(dot, w) {
			t.Errorf("pCFG dot missing %q", w)
		}
	}
}

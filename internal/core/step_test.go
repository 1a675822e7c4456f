package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/cg"
	"repro/internal/clients/cartesian"
	"repro/internal/core"
	"repro/internal/parser"
)

// TestStepLeavesEntryUnchanged checks that stepping a table entry leaves
// it as it was: process steps the entry itself, not a snapshot, so step
// may only read its input. Every entry state the engine steps — rebuilt by
// replaying each key's deliveries in arrival order — over the paper
// programs (blocking and with non-blocking sends) and 40 generated
// programs in safe and buggy mode must keep its FullKey, its set order and
// IDs, and its identity bytes.
func TestStepLeavesEntryUnchanged(t *testing.T) {
	var stepped, succs int
	for _, p := range identityPrograms(t, 40) {
		modes := []bool{false}
		if p.paper {
			modes = append(modes, true)
		}
		for _, nonBlocking := range modes {
			stepper := core.NewStepper(p.g, core.Options{
				Matcher:          cartesian.New(core.ScanInvariants(p.g)),
				NonBlockingSends: nonBlocking,
				RecordCommBounds: true,
			})
			replayEntryStates(t, p, nonBlocking, func(key string, st *core.State) {
				{
					// Identity sorts the sets canonically, as the engine's
					// identity encodings do before an entry is stepped.
					id := string(core.Identity(st))
					sets := append([]*core.ProcSet(nil), st.Sets...)
					ids := setIDs(st)
					full := st.FullKey()
					out := stepper.Step(st)
					if out == nil {
						return
					}
					stepped++
					succs += len(out)
					where := fmt.Sprintf("%s (nonblocking=%v) at %s", p.name, nonBlocking, key)
					if got := st.FullKey(); got != full {
						t.Fatalf("%s: step changed FullKey\n got: %s\nwant: %s", where, got, full)
					}
					if got := setIDs(st); got != ids || len(st.Sets) != len(sets) {
						t.Fatalf("%s: step changed the sets %s to %s", where, ids, got)
					}
					for i, ps := range st.Sets {
						if ps != sets[i] {
							t.Fatalf("%s: step reordered the sets", where)
						}
					}
					if got := string(core.Identity(st)); got != id {
						t.Fatalf("%s: step changed the identity", where)
					}
				}
			})
		}
	}
	if stepped < 1000 || succs < stepped {
		t.Fatalf("coverage: %d entry states stepped, %d successors", stepped, succs)
	}
	t.Logf("%d entry states stepped, %d successors", stepped, succs)
}

// setIDs renders st's set IDs in order.
func setIDs(st *core.State) string {
	var b strings.Builder
	for _, ps := range st.Sets {
		fmt.Fprintf(&b, "%d,", ps.ID)
	}
	return b.String()
}

// replayEntryStates analyzes p, records every state delivered to the
// configuration table, and replays each shape key's deliveries in arrival
// order (core.ReplayEntries), calling visit with every entry state the
// engine steps: the state after the first delivery and after every
// revision that changed it.
func replayEntryStates(t *testing.T, p identityProgram, nonBlocking bool, visit func(key string, st *core.State)) {
	t.Helper()
	var keys []string
	streams := map[string][]*core.State{}
	opts := core.WithRevisionHook(core.Options{NonBlockingSends: nonBlocking}, func(key string, st *core.State) {
		if _, ok := streams[key]; !ok {
			keys = append(keys, key)
		}
		streams[key] = append(streams[key], st)
	})
	opts.Matcher = cartesian.New(core.ScanInvariants(p.g))
	if _, err := core.Analyze(p.g, opts); err != nil {
		t.Fatalf("%s: analyze: %v", p.name, err)
	}
	for _, key := range keys {
		core.ReplayEntries(core.Options{}, key, streams[key], func(st *core.State) { visit(key, st) })
	}
}

// TestEmptinessSplitSuccessorOrder pins the order of an emptiness split's
// successors, which decides the order their configurations are interned
// and visited in: the side where the blocked set is empty comes first,
// then what the inline continuation on the non-empty side produces (here
// a give-up, since no process ever sends to the receivers).
func TestEmptinessSplitSuccessorOrder(t *testing.T) {
	prog, err := parser.Parse("t.mpl", "x := 0\nif id == 0 then\n  skip\nelse\n  recv x <- 0\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Build(prog)
	stepper := core.NewStepper(g, core.Options{Matcher: cartesian.New(core.ScanInvariants(g))})
	st := core.NewState(g.Entry, cg.Options{})
	for steps := 0; steps < 20; steps++ {
		succs := stepper.Step(st)
		if len(succs) == 0 {
			break
		}
		if len(succs) == 2 && succs[0].Top != succs[1].Top {
			if succs[0].Top || len(succs[0].Sets) != len(st.Sets)-1 {
				t.Fatalf("split of %s: first successor %s, want the side without the blocked set", st, succs[0])
			}
			return
		}
		st = succs[0]
	}
	t.Fatal("no emptiness split reached")
}

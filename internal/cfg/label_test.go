package cfg_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/cfg"
	"repro/internal/differ"
	"repro/internal/gen"
	"repro/internal/parser"
)

// labelRef is the fmt rendering Label replaced, kept as the reference.
func labelRef(n *cfg.Node) string {
	switch n.Kind {
	case cfg.Entry:
		return "entry"
	case cfg.Exit:
		return "exit"
	case cfg.Assign:
		return fmt.Sprintf("%s := %s", n.AssignName, n.AssignRhs)
	case cfg.Branch:
		return fmt.Sprintf("if %s", n.Cond)
	case cfg.Send:
		return fmt.Sprintf("send %s -> %s", n.Value, n.Dest)
	case cfg.Recv:
		return fmt.Sprintf("recv %s <- %s", n.RecvName, n.Src)
	case cfg.SendRecv:
		return fmt.Sprintf("sendrecv %s -> %s, %s <- %s", n.Value, n.Dest, n.RecvName, n.Src)
	case cfg.Print:
		return fmt.Sprintf("print %s", n.Arg)
	case cfg.Assume:
		return fmt.Sprintf("assume %s", n.Cond)
	case cfg.Assert:
		return fmt.Sprintf("assert %s", n.Cond)
	case cfg.Skip:
		return "skip"
	}
	return n.Kind.String()
}

// TestLabelMatchesReference checks Label and String against the fmt
// renderings on every node of the paper workloads, of every testdata
// program and of the first 100 programs of the benchmark's generated
// pools (pool seed 1, safe and buggy).
func TestLabelMatchesReference(t *testing.T) {
	graphs := map[string]*cfg.Graph{}
	for _, w := range bench.All() {
		_, g := w.Parse()
		graphs[w.Name] = g
	}
	add := func(name, src string) {
		prog, err := parser.Parse(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		graphs[name] = cfg.Build(prog)
	}
	for _, pat := range []string{"../../testdata/*.mpl", "../../testdata/*/*.mpl"} {
		paths, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			add(path, string(src))
		}
	}
	for i := 0; i < 100; i++ {
		for _, c := range []gen.Config{{}, {Bug: gen.Bugs()[i%len(gen.Bugs())]}} {
			p := gen.New(rand.New(rand.NewSource(differ.ProgramSeed(1, i))), c)
			add(fmt.Sprintf("pool 1 #%d %q", i, c.Bug), p.Src)
		}
	}
	nodes := 0
	for name, g := range graphs {
		for _, n := range g.Nodes {
			nodes++
			if got, want := n.Label(), labelRef(n); got != want {
				t.Errorf("%s: n%d Label = %q, want %q", name, n.ID, got, want)
			}
			if got, want := n.String(), fmt.Sprintf("n%d[%s]", n.ID, labelRef(n)); got != want {
				t.Errorf("%s: String = %q, want %q", name, got, want)
			}
		}
	}
	if nodes < 1000 {
		t.Errorf("checked only %d nodes", nodes)
	}
}

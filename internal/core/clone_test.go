package core_test

import (
	"testing"

	"repro/internal/procset"
	"repro/internal/sym"
)

// TestCloneSetsIndependent checks that a clone's process sets, which share
// one allocation, are still its own: writing every field of a cloned set,
// splitting a clone and cloning a clone leave the other states' sets as
// they were, in either direction.
func TestCloneSetsIndependent(t *testing.T) {
	st := entryState(t)
	all := st.Sets[0]
	st.SplitSet(all, procset.Range(nil, sym.Zero, sym.Zero), procset.Range(nil, sym.Const(1), sym.VarPlus("np", -1)))
	orig := st.FullKey()

	c := st.Clone()
	if got := c.FullKey(); got != orig {
		t.Fatalf("clone renders %q, want %q", got, orig)
	}
	next := all.Node.SuccSeq()
	for _, p := range c.Sets {
		p.ID += 10
		p.Node = next
		p.Range = procset.Singleton(nil, sym.Const(7))
		p.Blocked = true
		p.Approx = true
	}
	c.SplitSet(c.Sets[0], procset.Singleton(nil, sym.Const(7)), procset.Singleton(nil, sym.Const(8)))
	if got := st.FullKey(); got != orig {
		t.Fatalf("writing a clone's sets changed the original to %q, want %q", got, orig)
	}

	cc := c.Clone()
	want := cc.FullKey()
	for _, p := range st.Sets {
		p.Range = procset.Singleton(nil, sym.Const(9))
	}
	c.Sets[1].Range = procset.Singleton(nil, sym.Const(5))
	if got := cc.FullKey(); got != want {
		t.Fatalf("writing the original and a clone changed the clone's clone to %q, want %q", got, want)
	}
}

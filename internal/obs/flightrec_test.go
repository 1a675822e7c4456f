package obs

// The flight recorder is the tracer's ring mode (NewRing): these tests pin
// its window, its capacity rules, its concurrency and its dump format.

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestRing returns a ring whose clock advances 1ns per reading, so
// sequential spans sort in the order they were recorded.
func newTestRing(n int) *Tracer {
	r := NewRing(n)
	var now time.Duration
	r.clock = func() time.Duration { now++; return now }
	return r
}

func TestFlightRecorderWraparound(t *testing.T) {
	r := newTestRing(16)
	for i := 0; i < 40; i++ {
		r.Begin(1, 0, PhaseStep, fmt.Sprintf("k%d", i)).End()
	}
	evs := r.Events()
	if len(evs) != 16 {
		t.Fatalf("ring kept %d events, want capacity 16", len(evs))
	}
	// The survivors are exactly the last 16 records, in record order.
	for i, ev := range evs {
		if want := fmt.Sprintf("k%d", 24+i); ev.Key != want {
			t.Fatalf("event %d: key %q, want %q", i, ev.Key, want)
		}
	}
	// Phase totals count the evicted events too.
	if got := r.Totals()["step"].Count; got != 40 {
		t.Fatalf("step total = %d, want 40", got)
	}
}

func TestFlightRecorderPartialFill(t *testing.T) {
	r := newTestRing(16)
	for i := 0; i < 5; i++ {
		r.Mark(0, 0, PhaseGiveup, i, fmt.Sprintf("k%d", i), "")
	}
	evs := r.Events()
	if len(evs) != 5 {
		t.Fatalf("ring kept %d events, want 5", len(evs))
	}
	for i, ev := range evs {
		if want := fmt.Sprintf("k%d", i); ev.Key != want || ev.Dur != 0 {
			t.Fatalf("event %d: %+v, want zero-length %s", i, ev, want)
		}
	}
}

func TestFlightRecorderCapacity(t *testing.T) {
	for _, c := range []struct{ n, want int }{{0, 4096}, {-3, 4096}, {3, 16}, {16, 16}, {100, 100}} {
		r := NewRing(c.n)
		for i := 0; i < 5000; i++ {
			r.Mark(0, 0, PhaseStep, 0, "", "")
		}
		if got := len(r.Events()); got != c.want {
			t.Errorf("NewRing(%d) keeps %d events, want %d", c.n, got, c.want)
		}
	}
}

// countingWriter records how many Write calls a dump makes.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

func TestFlightRecorderDumpDeterminism(t *testing.T) {
	r := newTestRing(16)
	for i := 0; i < 30; i++ {
		r.Begin(3, 0, PhaseDequeue, "key").EndDetail("d")
	}
	r.Mark(3, 0, PhaseDump, 0, "", "stall: no progress for 1s")
	var a, b countingWriter
	if err := Dump(&a, r); err != nil {
		t.Fatal(err)
	}
	if err := Dump(&b, r); err != nil {
		t.Fatal(err)
	}
	if a.writes != 1 {
		t.Fatalf("dump made %d Write calls, want 1", a.writes)
	}
	if a.String() != b.String() {
		t.Fatalf("two dumps of an idle ring differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	if n := strings.Count(a.String(), "\n"); n != 16 {
		t.Fatalf("dump has %d lines, want 16", n)
	}
	evs, err := ReadJSONL(strings.NewReader(a.String()))
	if err != nil {
		t.Fatal(err)
	}
	if want := r.Events(); fmt.Sprint(evs) != fmt.Sprint(want) {
		t.Fatalf("dump reads back as\n%v\nwant\n%v", evs, want)
	}
	last := evs[len(evs)-1]
	if last.Phase != PhaseDump || last.Detail != "stall: no progress for 1s" {
		t.Fatalf("last event %+v, want the dump marker", last)
	}
}

// TestFlightRecorderConcurrent hammers a ring from several goroutines
// while snapshots and dumps run; with -race this is the ring's
// thread-safety gate.
func TestFlightRecorderConcurrent(t *testing.T) {
	r := NewRing(64)
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				r.Begin(g, 0, PhaseStep, "k").End()
			}
		}(g)
	}
	stop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			if n := len(r.Events()); n > 64 {
				t.Errorf("snapshot exceeds capacity: %d", n)
				return
			}
			if err := Dump(nopWriter{}, r); err != nil {
				t.Errorf("dump: %v", err)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-snapDone
	if got := r.Totals()["step"].Count; got != 2000 {
		t.Fatalf("step total = %d, want 2000", got)
	}
	if len(r.Events()) != 64 {
		t.Fatalf("ring kept %d events, want 64", len(r.Events()))
	}
}

// TestFlightRecorderNilFree pins the disabled contract: marking through a
// nil tracer allocates nothing, and dumping it writes nothing.
func TestFlightRecorderNilFree(t *testing.T) {
	var r *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		r.Mark(1, 0, PhaseGiveup, 2, "key", "")
	})
	if allocs != 0 {
		t.Fatalf("nil Tracer.Mark allocates %.1f/op, want 0", allocs)
	}
	var b bytes.Buffer
	if err := Dump(&b, r); err != nil || b.Len() != 0 {
		t.Fatalf("nil dump wrote %q, %v", b.String(), err)
	}
}

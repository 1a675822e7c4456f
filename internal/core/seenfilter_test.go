// External test package: building real matchers requires the client
// packages, which import core.
package core_test

import (
	"bytes"
	"testing"

	"repro/internal/clients/cartesian"
	"repro/internal/core"
)

// refFilter is the duplicate-delivery filter as a map of identity strings
// per entry: the reference the engine's seen log is checked against.
type refFilter map[string]map[string]struct{}

// judge applies one filter decision to the reference: it reports whether
// the reference drops the delivery, and records what the engine records
// for a delivery it admits.
func (f refFilter) judge(d core.FilterDecision) (dropped bool) {
	seen := f[d.Key]
	if seen == nil {
		seen = map[string]struct{}{}
		f[d.Key] = seen
	}
	if _, dup := seen[string(d.Incoming)]; dup || bytes.Equal(d.Incoming, d.Entry) {
		return true
	}
	seen[string(d.Incoming)] = struct{}{}
	seen[string(d.Entry)] = struct{}{}
	if d.Committed != nil {
		seen[string(d.Committed)] = struct{}{}
	}
	return false
}

// TestSeenFilterMatchesMap replays the deliveries of the paper programs
// (blocking and non-blocking) and of 40 generated programs of pool 1, safe
// and buggy, through the duplicate filter, and checks every drop decision
// against the reference map filter.
func TestSeenFilterMatchesMap(t *testing.T) {
	judged, dropped := 0, 0
	for _, p := range identityPrograms(t, 40) {
		for _, opts := range boundTableModes(p) {
			var dels []core.Delivery
			run := core.WithRevisionHook(opts, func(key string, st *core.State) {
				dels = append(dels, core.Delivery{Key: key, St: st})
			})
			analyzeWith(t, p.g, run)
			opts.Matcher = cartesian.New(core.ScanInvariants(p.g))
			ref := refFilter{}
			for i, d := range core.ReplayFilter(opts, dels) {
				if want := ref.judge(d); d.Dropped != want {
					t.Fatalf("%s (non-blocking %v): decision %d at %s: filter dropped %v, reference %v",
						p.name, opts.NonBlockingSends, i, d.Key, d.Dropped, want)
				}
				judged++
				if d.Dropped {
					dropped++
				}
			}
		}
	}
	if dropped == 0 || dropped == judged {
		t.Fatalf("%d of %d deliveries dropped: the replay does not exercise both decisions", dropped, judged)
	}
	t.Logf("%d deliveries judged, %d dropped", judged, dropped)
}

// TestEntryIdentityRecordNeverStale replays the same deliveries as
// TestSeenFilterMatchesMap and checks that after every revision an entry
// that points at a record of its identity holds exactly that identity. The
// generated programs are needed: the paper programs never have a combine
// that ends without change while it enriches the entry in place, the case
// that must clear the record.
func TestEntryIdentityRecordNeverStale(t *testing.T) {
	checked := 0
	for _, p := range identityPrograms(t, 40) {
		for _, opts := range boundTableModes(p) {
			var dels []core.Delivery
			run := core.WithRevisionHook(opts, func(key string, st *core.State) {
				dels = append(dels, core.Delivery{Key: key, St: st})
			})
			analyzeWith(t, p.g, run)
			opts.Matcher = cartesian.New(core.ScanInvariants(p.g))
			n, stale := core.StaleEntryRecords(opts, dels)
			if stale != "" {
				t.Fatalf("%s (non-blocking %v): %s", p.name, opts.NonBlockingSends, stale)
			}
			checked += n
		}
	}
	if checked == 0 {
		t.Fatal("no revision left an identity record to check")
	}
	t.Logf("%d identity records checked", checked)
}

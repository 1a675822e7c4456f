package main

import (
	"sort"
	"strconv"
	"time"
)

// The benchmark runs on shared hosts whose speed drifts by ±25% over
// minutes as neighbours load the machine; per-verdict CPU time drifts with
// wall time, so the slowdown is contention, not descheduling, and no
// statistic within a 20 s run removes it. The harness therefore times a
// fixed reference kernel every refEvery during each run and reports every
// time scaled to a nominal host on which the kernel takes refNominal: a
// slowdown that hits the analyzer and the kernel alike cancels. The kernel
// is benchmark code, so it is the same on both sides of a comparison; it
// allocates, hashes strings, sorts and chases pointers, the operations the
// analyzer's time goes to.
const (
	refNominal = time.Millisecond
	refEvery   = 50 * time.Millisecond
)

// hostClock samples the reference kernel during a run.
type hostClock struct {
	samples []float64 // kernel times, ns
	last    time.Time
}

// tick times the kernel if refEvery has passed since the last sample.
func (h *hostClock) tick() {
	if time.Since(h.last) < refEvery {
		return
	}
	h.samples = append(h.samples, float64(referenceKernel()))
	h.last = time.Now()
}

// refMs is the median kernel time of the run.
func (h *hostClock) refMs() float64 { return median(h.samples) / 1e6 }

// scale converts this run's times to the nominal host.
func (h *hostClock) scale() float64 { return float64(refNominal) / median(h.samples) }

type refNode struct {
	next *refNode
	v    [4]int64
}

var refSink int

// referenceKernel does a fixed amount of work and returns how long it took.
func referenceKernel() time.Duration {
	start := time.Now()
	m := map[string]int{}
	keys := make([]string, 0, 2000)
	for i := 0; i < 2000; i++ {
		k := strconv.Itoa(i*7919%10007) + "/" + strconv.Itoa(i)
		m[k] = i
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var head *refNode
	for i := 0; i < 5000; i++ {
		head = &refNode{next: head, v: [4]int64{int64(i)}}
	}
	sum := 0
	for n := head; n != nil; n = n.next {
		sum += int(n.v[0])
	}
	for _, k := range keys {
		sum += m[k]
	}
	refSink = sum
	return time.Since(start)
}

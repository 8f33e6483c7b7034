package main

import (
	"math"
	"runtime"
	"time"
)

// The host's speed drifts: on a shared 2-vCPU machine the same work runs
// 10–25% slower or faster in phases of tens of seconds, as much as the
// changes the benchmark has to resolve. So a run also times a fixed
// kernel — no potsim code — right after each unit of work, and scales
// the host times the unit measured to a nominal host on which the kernel
// takes refNominalMS: each is multiplied by refNominalMS over the
// kernel's time beside it. The end-to-end metrics are these scaled times.
//
// Pairing matters. Over three minutes of 32x32 simulations alternating
// with the kernel, in a noisy phase of such a host, the 20 s medians of
// raw unit time spread by 22% (IQR over median); the medians of each
// unit's ratio to the kernel sample after it spread by 1.4%, and the
// ratio of the two medians by 4.8%.
//
// refNominalMS is about the kernel's median on that host in a quiet
// phase, so scaled values read close to raw ones there.
const refNominalMS = 8.5

// refTable is the kernel's working set, 256 KiB: beyond the first-level
// caches, like the simulator's per-core state on a large mesh.
var (
	refTable [1 << 15]uint64
	refSink  float64
)

// refKernel runs the fixed kernel once and returns how long it took:
// splitmix64 hashing scattered over refTable with an exponential every
// eighth step, the integer and transcendental mix of the simulator's
// signature compaction and wear models.
func refKernel() time.Duration {
	t := time.Now()
	s, x := uint64(1), 1.0
	for i := 0; i < 3_000_000; i++ {
		s += 0x9e3779b97f4a7c15
		z := (s ^ (s >> 30)) * 0xbf58476d1ce4e5b9
		refTable[z&uint64(len(refTable)-1)] += z
		if i&7 == 0 {
			x = x*0.999999 + math.Exp(-float64(z&1023)/512)
		}
	}
	refSink += x + float64(refTable[5])
	return time.Since(t)
}

// sampleRef returns one kernel sample in ms: the fastest of three runs
// after a collection, so that neither the collector finishing the last
// unit's garbage on the other vCPU nor a single preemption is read as
// the host's speed.
func sampleRef() float64 {
	runtime.GC()
	best := refKernel()
	for i := 0; i < 2; i++ {
		best = min(best, refKernel())
	}
	return ms(best)
}

// addOp records one operation's host time in ms, and addHost host time
// spent simulating; both wait for the next kernel sample to be scaled.
func (r *run) addOp(v float64)         { r.pendOps = append(r.pendOps, v) }
func (r *run) addHost(d time.Duration) { r.pendHost += d.Seconds() }

// calibrate samples the kernel and scales the host times recorded since
// the previous sample by it.
func (r *run) calibrate() {
	ref := sampleRef()
	r.refs = append(r.refs, ref)
	r.scale(refNominalMS / ref)
}

// scale moves the pending host times, multiplied by f, into ops and
// hostS.
func (r *run) scale(f float64) {
	for _, v := range r.pendOps {
		r.ops = append(r.ops, v*f)
	}
	r.hostS += r.pendHost * f
	r.pendOps, r.pendHost = r.pendOps[:0], 0
}

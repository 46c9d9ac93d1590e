package main

import (
	"iter"
	"math"
	"slices"
	"time"
)

// refCalibS is calibrate's median on the reference host (a 2-vCPU
// x86-64 VM, Go 1.24). End-to-end times are reported in seconds of that
// host: host time × (refCalibS / the calibration measured around it)
// raised to calibSlope.
const refCalibS = 0.06

// calibSlope is the fitted slope of log round time on log calibration on
// the reference host: 1.2–1.3 over 58 and 104 in-process rounds per
// workload, and 1.17–1.38 (r ≥ 0.91) over 40 runs of 30 s. The simulator
// slows more than the calibration in a slow host phase, so a plain ratio
// under-corrects.
const calibSlope = 1.25

// calibSink keeps the calibration loops from being optimised away.
var calibSink uint64

// calibrate times a fixed piece of host work that runs no code of the
// repository, so that host-speed drift can be divided out of the
// simulator's host times. The three parts are the kinds of work the
// simulator's time is made of: an ALU-bound hash loop, branchy
// comparisons over an L2-sized array (a sort), and coroutine handoffs
// through iter.Pull as the conductor makes them. Of the candidates timed
// around real rounds (besides these: random access over 256 KiB to
// 64 MiB, map updates, a coroutine-driven cache-model loop), this mix
// tracked round times best. It returns the geometric mean of the parts'
// times in seconds.
func calibrate() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 30_000_000; i++ {
		x = xorshift(x)
	}
	alu := time.Since(start).Seconds()

	v := make([]uint64, 200_000)
	for i := range v {
		x = xorshift(x)
		v[i] = x
	}
	start = time.Now()
	slices.Sort(v)
	branchy := time.Since(start).Seconds()

	start = time.Now()
	next, stop := iter.Pull(func(yield func(uint64) bool) {
		for i := uint64(0); yield(i); i++ {
		}
	})
	for i := 0; i < 1_000_000; i++ {
		n, _ := next()
		x += n
	}
	stop()
	handoff := time.Since(start).Seconds()
	calibSink += x
	return math.Cbrt(alu * branchy * handoff)
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

package main

import "syscall"

// The calibration loop: a fixed amount of pure-Go work whose host time
// tracks how fast this machine is running right now. Every timed
// repetition is bracketed by two of these, and its host time is scaled by
// calibRefNS / mean(adjacent calibration ns) — so a repetition that ran
// while a noisy neighbour had slowed the host by 10 % is scaled back by
// the same 10 %. The loop mixes ALU work with dependent loads over a
// table larger than L1 and about the size of a private L2, the same
// resources the interpreter and the mmu fast paths live on.

const (
	calibTableWords = 64 << 10 // 256 KiB of uint32
	calibSteps      = 4 << 20
	// calibRefNS is the calibration time every measurement is scaled to:
	// "host ns on a machine where the calibration loop takes 15 ms".
	calibRefNS = 15e6
)

var calibTable = func() []uint32 {
	t := make([]uint32, calibTableWords)
	x := uint32(0x9E3779B9)
	for i := range t {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		t[i] = x
	}
	return t
}()

// calibSink keeps the loop's result live so the compiler cannot drop it.
var calibSink uint32

// cpuNS is the host clock every host-side metric is measured on: the
// process's CPU time (user + system). With GOMAXPROCS(1) it equals wall
// time minus the intervals the sandbox descheduled the process, which
// removes the largest run-to-run spikes before calibration even starts.
func cpuNS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Nano() + ru.Stime.Nano())
}

// calibrate runs the loop once and returns its host CPU nanoseconds.
func calibrate() float64 {
	t0 := cpuNS()
	x, acc := uint32(2463534242), uint32(0)
	for i := 0; i < calibSteps; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		acc += calibTable[(x^acc)&(calibTableWords-1)]
	}
	calibSink = acc
	return cpuNS() - t0
}

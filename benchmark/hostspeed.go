package main

import (
	"bytes"
	"fmt"
	"regexp"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is a VM whose cores other tenants
// share, and its speed wanders in phases of seconds to minutes: the
// same unit of work runs up to twice as fast in one phase as in
// another. A run therefore also times a fixed reference burst between
// its units, and scales every throughput and set-up time to a host on
// which the burst runs at its nominal speed. The reference is part of
// the benchmark, so a change to the program under test leaves it
// unchanged.
//
// Busy phases do not slow all code alike. A tight interpreter loop over
// a 64 KiB image (refLoop) slows least; Go's regexp engine, a bytecode
// interpreter with a large code footprint and data-dependent branches,
// slows about three times as much. apps-baseline slows as much as
// regexp; apps-monitored and attacks-short slow about halfway between
// the two. Each workload therefore names the burst that tracks it (see
// README.md). A burst is timed in the CPU time of the threads that ran
// it, so that the program's own leftover work, such as GC workers
// marking a large heap, takes turns with the burst without reading as a
// slower host.

// refBurst is one reference burst per goroutine: steps of refLoop and
// scans of the reference text, and the burst's speed on the host that
// normalized figures describe, in bursts per CPU second per goroutine
// with every goroutine running: about the median speed of the 2-vCPU
// Xeon VM the recorded results come from.
type refBurst struct {
	steps   int
	scans   int
	nominal float64
}

var (
	// mixedBurst spends about 3.4 ms here in refLoop and 5.7 ms matching
	// regexps.
	mixedBurst = refBurst{steps: 1_000_000, scans: 2, nominal: 110}
	// regexpBurst spends about 8.6 ms here matching regexps.
	regexpBurst = refBurst{scans: 3, nominal: 118}
)

// refLoop interprets n steps of a fixed pseudo-random program, loading
// from and storing to a 64 KiB data image, and returns a value that
// depends on every step. Control flow depends on prog alone, so every
// call with the same n does the same work.
func refLoop(prog, data []byte, n int) uint64 {
	var r [4]uint64
	r[0] = 1
	pc := uint16(0)
	for i := 0; i < n; i++ {
		op := prog[pc]
		switch op & 3 {
		case 0:
			r[1] += r[0] ^ uint64(i)
		case 1:
			r[2] = r[2]*6364136223846793005 + r[1]
		case 2:
			r[3] ^= (r[2] >> 7) + uint64(data[uint16(r[1])])
			data[uint16(r[3])] = byte(r[3] >> 9)
		case 3:
			r[0] = r[3] | 1
		}
		pc += uint16(op>>2) + 1
	}
	return r[0] + r[1] + r[2] + r[3]
}

// refPatterns are matched against every line of the reference text.
var refPatterns = []*regexp.Regexp{
	regexp.MustCompile(`mov #0x([0-9a-f]{4}), r(1[0-5]|[0-9])`),
	regexp.MustCompile(`(call|jmp) #(\d+)$`),
}

// refText is the reference text: 2000 fixed lines of assembler-like
// text, each of which both refPatterns match.
func refText() [][]byte {
	var b bytes.Buffer
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&b, "line %d: mov #0x%04x, r%d ; call #%d\n", i, i*37&0xffff, i%16, i*3)
	}
	return bytes.Split(bytes.TrimSuffix(b.Bytes(), []byte("\n")), []byte("\n"))
}

// refMatch scans the lines n times and counts the matches.
func refMatch(lines [][]byte, n int) uint64 {
	var k uint64
	for range n {
		for _, l := range lines {
			for _, re := range refPatterns {
				if re.Match(l) {
					k++
				}
			}
		}
	}
	return k
}

// hostClock measures the host's speed with reference bursts that run on
// as many goroutines as the run has workers, so that both the
// simulator and the reference keep the same cores busy.
type hostClock struct {
	ref   refBurst
	prog  []byte
	lines [][]byte
	datas [][]byte // one per goroutine
	sink  uint64
	last  float64 // the latest burst's speed, bursts per CPU second
}

func newHostClock(workers int, ref refBurst) *hostClock {
	c := &hostClock{ref: ref, prog: make([]byte, 1<<16), lines: refText()}
	x := uint64(1)
	for i := range c.prog {
		x = splitmix64(x)
		c.prog[i] = byte(x)
	}
	for w := 0; w < max(workers, 1); w++ {
		c.datas = append(c.datas, make([]byte, 1<<16))
	}
	c.last = c.burst()
	return c
}

// burst runs one reference burst and returns its speed: one over the
// mean CPU time of the goroutines that ran it.
func (c *hostClock) burst() float64 {
	type result struct {
		sum uint64
		cpu time.Duration
	}
	done := make(chan result, len(c.datas)) // one send per goroutine
	for _, data := range c.datas {
		go func(data []byte) {
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			t0 := threadCPU()
			sum := refLoop(c.prog, data, c.ref.steps) + refMatch(c.lines, c.ref.scans)
			done <- result{sum, threadCPU() - t0}
		}(data)
	}
	var cpu time.Duration
	for range c.datas {
		r := <-done
		c.sink += r.sum
		cpu += r.cpu
	}
	return float64(len(c.datas)) / cpu.Seconds()
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU returns the CPU time the calling thread has used, to the
// nanosecond (getrusage counts in scheduler ticks, too coarse for a
// burst). The thread must be locked to its goroutine. Where the kernel
// offers no per-thread clock, it returns the wall clock instead, and
// bursts are timed in wall time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return time.Duration(time.Now().UnixNano())
	}
	return time.Duration(ts.Nano())
}

// tick runs a burst and returns the host's speed relative to the
// nominal host over the work timed since the previous tick: the mean
// of the bursts on either side of it, over the burst's nominal speed.
// Divide a rate by it, or multiply a duration by it, to get the nominal
// host's figure.
func (c *hostClock) tick() float64 {
	now := c.burst()
	f := (c.last + now) / 2 / c.ref.nominal
	c.last = now
	return f
}

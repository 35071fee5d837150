package main

import (
	"math"
	"testing"
)

// Every reference burst does the same work: the result depends on the
// step count and the program, not on what earlier bursts stored.
func TestRefLoopRepeats(t *testing.T) {
	c := newHostClock(2, mixedBurst)
	fresh := make([]byte, 1<<16)
	want := refLoop(c.prog, fresh, 10_000)
	for _, data := range c.datas {
		clear(data)
		if got := refLoop(c.prog, data, 10_000); got != want {
			t.Fatalf("a burst on fresh data gave %d, want %d", got, want)
		}
	}
	if refLoop(c.prog, make([]byte, 1<<16), 10_001) == want {
		t.Error("the result does not depend on the step count")
	}
}

// The regexp part of a burst matches both patterns on every line, so
// each scan does the same, complete work.
func TestRefMatchScansEveryLine(t *testing.T) {
	lines := refText()
	if len(lines) != 2000 {
		t.Fatalf("%d reference lines, want 2000", len(lines))
	}
	if got, want := refMatch(lines, 3), uint64(3*len(lines)*len(refPatterns)); got != want {
		t.Errorf("refMatch = %d matches, want %d", got, want)
	}
}

// Every workload names a reference burst that does some work and has a
// nominal speed to scale by.
func TestWorkloadsNameABurst(t *testing.T) {
	for _, w := range workloads {
		if w.ref.steps+w.ref.scans == 0 || !(w.ref.nominal > 0) {
			t.Errorf("%s: reference burst %+v", w.name, w.ref)
		}
	}
}

// tick reports the host's speed over the nominal host as a positive,
// finite factor, averaged over the bursts on either side.
func TestHostClockTick(t *testing.T) {
	c := newHostClock(1, mixedBurst)
	before := c.last
	f := c.tick()
	if !(f > 0) || math.IsInf(f, 0) {
		t.Fatalf("tick = %v", f)
	}
	if want := (before + c.last) / 2 / mixedBurst.nominal; !near(f, want) {
		t.Errorf("tick = %v, want the mean of the bursts over nominal, %v", f, want)
	}
}

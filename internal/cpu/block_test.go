package cpu

import (
	"reflect"
	"testing"

	"eilid/internal/isa"
	"eilid/internal/mem"
)

// filterWatcher is a recWatcher that is also a FetchFilter: every
// fetch pair is quiet except those listed in loud.
type filterWatcher struct {
	recWatcher
	loud map[[2]uint16]bool
}

func (w *filterWatcher) QuietFetch(prev, pc uint16) bool { return !w.loud[[2]uint16{prev, pc}] }

func (w *recWatcher) fetched() []uint16 { return w.fetches }

// blockProgram is a register-only loop: one pass through the fused run
// at 0xE000, two more through the self-looping block at 0xE004, then a
// `jmp $` that spins until the limit.
func blockProgram(t *testing.T) *CPU {
	t.Helper()
	c, s := program(t,
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(3), Dst: isa.RegOp(10)},  // 0xE000
		isa.Instruction{Op: isa.ADD, Src: isa.Imm(1), Dst: isa.RegOp(4)},   // 0xE004
		isa.Instruction{Op: isa.ADD, Src: isa.RegOp(4), Dst: isa.RegOp(5)}, // 0xE006
		isa.Instruction{Op: isa.SUB, Src: isa.Imm(1), Dst: isa.RegOp(10)},  // 0xE008
		isa.Instruction{Op: isa.JNE, JumpOffset: -4},                       // 0xE00A: jnz 0xE004
		isa.Instruction{Op: isa.JMP, JumpOffset: -1},                       // 0xE00C: jmp $
	)
	predecoded(c, s)
	return c
}

// TestRunBlocksFetchFilter pins the delivery rule: a watcher without
// QuietFetch hears every fetch through the guarded loop; a FetchFilter
// hears each block's entry and the pairs it calls loud, and pure blocks
// that need only their entry run on the pure path.
func TestRunBlocksFetchFilter(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    Watcher
		// want lists the delivered fetches; nil means one per instruction.
		want          []uint16
		pure, guarded bool
	}{
		{name: "no filter", w: &recWatcher{}, guarded: true},
		{name: "all quiet", w: &filterWatcher{}, want: []uint16{0xE000, 0xE004, 0xE00C}, pure: true},
		{
			name:    "one loud pair",
			w:       &filterWatcher{loud: map[[2]uint16]bool{{0xE004, 0xE006}: true}},
			want:    []uint16{0xE000, 0xE006, 0xE004, 0xE006, 0xE004, 0xE006, 0xE00C},
			pure:    true,
			guarded: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := blockProgram(t)
			c.Watch = tc.w
			c.RunBlocks(c.Cycles+100, nil, 0)
			got := tc.w.(interface{ fetched() []uint16 }).fetched()
			if tc.want == nil && uint64(len(got)) != c.Insns {
				t.Errorf("%d fetches for %d instructions", len(got), c.Insns)
			}
			if tc.want != nil && !reflect.DeepEqual(got, tc.want) {
				t.Errorf("fetches %04x, want %04x", got, tc.want)
			}
			if c.R[10] != 0 || c.R[4] != 3 || c.R[5] != 6 {
				t.Errorf("loop state r10=%d r4=%d r5=%d", c.R[10], c.R[4], c.R[5])
			}
			if c.PureInsns+c.GuardedInsns != c.Insns {
				t.Errorf("pure %d + guarded %d != insns %d", c.PureInsns, c.GuardedInsns, c.Insns)
			}
			if (c.PureInsns > 0) != tc.pure || (c.GuardedInsns > 0) != tc.guarded {
				t.Errorf("pure %d, guarded %d instructions", c.PureInsns, c.GuardedInsns)
			}
		})
	}
}

// TestRunBlocksEntryTrip pins the admitted path's trip rule: when the
// entry fetch of a pure block raises a violation, op 0 alone retires,
// as in the guarded loop, and lastPre is the cycle before it.
func TestRunBlocksEntryTrip(t *testing.T) {
	c := blockProgram(t)
	w := &filterWatcher{}
	c.Watch = w
	start := c.Cycles
	ran, lastPre := c.RunBlocks(c.Cycles+100, func() bool { return len(w.fetches) > 0 }, 0)
	if !ran {
		t.Fatal("nothing ran")
	}
	if c.Insns != 1 || c.GuardedInsns != 1 || c.PureInsns != 0 || lastPre != start {
		t.Errorf("insns %d (guarded %d, pure %d), lastPre %d want %d",
			c.Insns, c.GuardedInsns, c.PureInsns, lastPre, start)
	}
	if c.PC() != 0xE004 || c.PrevPC() != 0xE000 || c.R[10] != 3 {
		t.Errorf("pc %04x prev %04x r10 %d after op 0", c.PC(), c.PrevPC(), c.R[10])
	}
}

// TestRunBlocksExitReasons pins the exit counters: every RunBlocks
// return counts exactly one reason, so the counts sum to the calls. It
// also pins the hoisted interrupt poll: with GIE set and nothing
// pending, a PC-independent source keeps pure blocks and their
// self-loops on the pure path.
func TestRunBlocksExitReasons(t *testing.T) {
	c := blockProgram(t)
	irq := &testIRQ{pending: map[int]bool{8: true}}
	c.IRQ = irq
	c.R[isa.SR] |= isa.FlagGIE
	calls := 0
	run := func(limit uint64, reason int) {
		t.Helper()
		calls++
		before := c.BlockExits[reason]
		c.RunBlocks(limit, nil, 0)
		if c.BlockExits[reason] != before+1 {
			t.Errorf("call %d: exits %v, want one more at index %d", calls, c.BlockExits, reason)
		}
	}
	run(c.Cycles+100, ExitIRQ)
	if c.Insns != 0 {
		t.Fatalf("%d instructions ran with an interrupt pending", c.Insns)
	}
	irq.pending[8] = false
	run(c.Cycles, ExitLimit)
	run(c.Cycles+100, ExitLimit)
	if c.PC() != 0xE00C || c.R[10] != 0 || c.PureInsns != c.Insns || c.GuardedInsns != 0 {
		t.Errorf("pc %04x r10 %d: pure %d, guarded %d of %d instructions",
			c.PC(), c.R[10], c.PureInsns, c.GuardedInsns, c.Insns)
	}
	// Rewriting the jmp $ with itself changes no byte but marks its
	// page, which stales the block.
	s := c.bus.(*mem.Space)
	s.StoreWord(0xE00C, s.PeekWord(0xE00C))
	run(c.Cycles+100, ExitStale)
	c.R[isa.SR] |= isa.FlagCPUOff
	run(c.Cycles+100, ExitOther)
	c.SetPredecoded(nil)
	run(c.Cycles+100, ExitOther)
	var sum uint64
	for _, n := range c.BlockExits {
		sum += n
	}
	if sum != uint64(calls) {
		t.Errorf("exits %v sum to %d over %d calls", c.BlockExits, sum, calls)
	}
}

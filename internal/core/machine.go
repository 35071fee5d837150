package core

import (
	"errors"
	"fmt"

	"eilid/internal/asm"
	"eilid/internal/casu"
	"eilid/internal/cpu"
	"eilid/internal/isa"
	"eilid/internal/mem"
	"eilid/internal/periph"
)

// SimCtlAddr is the simulation-control register: firmware writes any
// value to signal completion (the simulated counterpart of the testbench
// "end of simulation" GPIO used by openMSP430 benchmarks). The low byte
// is the exit code.
const SimCtlAddr = 0x00FC

// simCtl latches the halt request.
type simCtl struct {
	halted bool
	code   uint16
}

func (s *simCtl) LoadWord(addr uint16) uint16 { return s.code }
func (s *simCtl) StoreWord(addr uint16, v uint16) {
	s.halted = true
	s.code = v
}

// QuietLoad implements mem.QuietLoader: only a store halts.
func (s *simCtl) QuietLoad(addr uint16) bool { return true }

// HoldsStill implements mem.StillHolder: the exit code changes only on
// a store.
func (s *simCtl) HoldsStill(addr uint16) bool { return true }

// Machine is a complete simulated device: CPU, memory, peripherals, and
// whichever defense monitor the configured DefenseSpec wires to the
// buses (the CASU/EILID monitor with its secure ROM, a hardware shadow
// stack, critical-variable watchpoints, or — the baseline of the paper's
// attack comparisons — no monitor at all on identical hardware).
type Machine struct {
	Space  *mem.Space
	CPU    *cpu.CPU
	IRQ    *periph.IRQController
	Port1  *periph.GPIO
	Port2  *periph.GPIO
	TimerA *periph.Timer
	ADC    *periph.ADC
	UART   *periph.UART
	LCD    *periph.LCD
	Ranger *periph.Ultrasonic

	// Monitor is the wired defense monitor; nil on baseline machines.
	Monitor casu.Defense
	// defense is the spec the machine was assembled from.
	defense *DefenseSpec

	// ResetCount counts hardware-triggered resets (violations).
	ResetCount int
	// ResetReasons records the violations behind the first
	// MaxResetReasons resets since power-on; ResetCount keeps the total,
	// so a reset-storm attack cannot grow the machine without bound.
	ResetReasons []casu.Violation
	// lastReason is the most recent violation, tracked separately so
	// RunResult.LastReason stays truthful once ResetReasons is full.
	lastReason casu.Violation

	// snap is the sealed memory image Recycle restores; nil until
	// Snapshot is called.
	snap *mem.Snapshot

	ctl *simCtl

	// cycled are the clocked peripherals the run loop batches, in the
	// order per-instruction ticking historically advanced them.
	cycled []periph.Cycled
	// tickAt is the earliest absolute cycle any peripheral next acts on
	// its own; hGen snapshots Space.HandlerStores so a register write
	// that may move a deadline forces a resync.
	tickAt uint64
	hGen   uint64
}

// MachineOptions configures NewMachine.
type MachineOptions struct {
	Config Config
	// ROM is the EILIDsw build; required when the defense is
	// instrumented (DefenseSpec.Instrumented).
	ROM *SecureROM
	// Defense selects the monitor to wire in; nil means
	// DefenseBaseline (no monitor).
	Defense *DefenseSpec
}

// NewMachine assembles a device: the peripherals first, then the memory
// space with their whole map (mem.NewSpace, which shares its dispatch
// table with every machine of the same layout), then the CPU over it.
func NewMachine(opts MachineOptions) (*Machine, error) {
	cfg := opts.Config
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{IRQ: &periph.IRQController{}, ctl: &simCtl{}}

	clock := func() uint64 { return m.CPU.Cycles }
	m.Port1 = periph.NewGPIO(periph.P1INAddr, m.IRQ, periph.IRQPort1)
	m.Port2 = periph.NewGPIO(periph.P2INAddr, m.IRQ, periph.IRQPort1)
	m.Port1.Clock = clock
	m.Port2.Clock = clock
	m.TimerA = periph.NewTimer(0x0160, m.IRQ, periph.IRQTimerA)
	m.ADC = periph.NewADC(m.IRQ, periph.IRQADC)
	m.UART = periph.NewUART(m.IRQ, periph.IRQUART)
	m.LCD = periph.NewLCD()
	m.Ranger = periph.NewUltrasonic(m.IRQ, periph.IRQUltrasonic)
	latch := &periph.ViolationLatch{}
	m.TimerA.Clock = clock
	m.ADC.Clock = clock
	m.Ranger.Clock = clock
	m.cycled = []periph.Cycled{m.TimerA, m.ADC, m.Ranger}

	// Default sensor wiring matching the benchmark applications:
	// channel 0 = ambient light, 1 = temperature, 2 = flame detector.
	m.ADC.Attach(0, periph.LightSensorModel)
	m.ADC.Attach(1, periph.TempSensorModel)
	m.ADC.Attach(2, periph.FlameSensorModel)
	m.Ranger.Distance = periph.RangerDistanceModel

	// The whole peripheral map goes to NewSpace, so the space's dispatch
	// table is fixed before the CPU takes its plain-memory flags.
	type device interface {
		mem.Handler
		Span() (uint16, uint16)
	}
	devices := []device{m.Port1, m.Port2, m.TimerA, m.ADC, m.UART, m.LCD, m.Ranger, latch}
	maps := make([]mem.Mapping, 0, len(devices)+1)
	for _, dev := range devices {
		lo, hi := dev.Span()
		maps = append(maps, mem.Mapping{Start: lo, End: hi, Handler: dev})
	}
	maps = append(maps, mem.Mapping{Start: SimCtlAddr, End: SimCtlAddr + 1, Handler: m.ctl})
	space, err := mem.NewSpace(cfg.Layout, maps...)
	if err != nil {
		return nil, err
	}
	m.Space = space
	m.CPU = cpu.New(space)

	spec := opts.Defense
	if spec == nil {
		spec = DefenseBaseline
	}
	m.defense = spec
	if spec.Instrumented {
		if opts.ROM == nil {
			return nil, fmt.Errorf("core: defense %q requires the EILIDsw ROM", spec.Name)
		}
		if err := opts.ROM.Program.Image.WriteTo(space); err != nil {
			return nil, fmt.Errorf("core: loading EILIDsw: %w", err)
		}
	}
	if spec.New != nil {
		m.Monitor = spec.New(DefenseEnv{Config: cfg, ROM: opts.ROM, Peek: space.PeekWord})
		m.CPU.Watch = m.Monitor
	}
	if spec.GateIRQ {
		m.CPU.IRQ = &casu.GateIRQ{
			Inner:  m.IRQ,
			Layout: cfg.Layout,
			PCNow:  m.CPU.PC,
		}
	} else {
		m.CPU.IRQ = m.IRQ
	}
	return m, nil
}

// Instrumented reports whether the machine runs the EILID-instrumented
// build with the secure ROM loaded.
func (m *Machine) Instrumented() bool { return m.defense.Instrumented }

// LoadFirmware programs an application image into memory (the flashing
// step before boot; not subject to run-time immutability).
func (m *Machine) LoadFirmware(img *asm.Image) error {
	return img.WriteTo(m.Space)
}

// Boot resets the CPU through the reset vector, with the interrupt
// controller cleared and the monitor (if any) returned to its freshly
// constructed state by its one reset, Clear.
func (m *Machine) Boot() {
	m.IRQ.Reset()
	m.ctl.halted = false
	if m.Monitor != nil {
		m.Monitor.Clear()
	}
	m.CPU.Reset(m.Space.Layout.ResetVector())
	// The 4-cycle reset latency is not delivered to peripherals (it
	// never was under per-instruction ticking, whose cycles come only
	// from executed instructions); re-anchor past it.
	m.resyncPeriph()
}

// syncPeriph ticks every clocked peripheral up to the CPU's cycle
// counter and refreshes the batch deadline.
func (m *Machine) syncPeriph() {
	now := m.CPU.Cycles
	for _, p := range m.cycled {
		p.SyncTo(now)
	}
	m.refreshDeadline()
}

// syncPeriphTo ticks every clocked peripheral up to the given cycle
// without refreshing the deadline — the run loop uses it to deliver the
// completed instructions of a batch before a device reset re-anchors.
func (m *Machine) syncPeriphTo(cycle uint64) {
	for _, p := range m.cycled {
		p.SyncTo(cycle)
	}
}

// resyncPeriph re-anchors every clocked peripheral at the CPU's cycle
// counter without ticking the elapsed time — used where per-instruction
// ticking historically dropped cycles (device resets, CPU faults).
func (m *Machine) resyncPeriph() {
	now := m.CPU.Cycles
	for _, p := range m.cycled {
		p.Resync(now)
	}
	m.refreshDeadline()
}

func (m *Machine) refreshDeadline() {
	m.hGen = m.Space.HandlerStores()
	d := uint64(periph.NoEvent)
	for _, p := range m.cycled {
		if e := p.NextEvent(); e < d {
			d = e
		}
	}
	m.tickAt = d
}

// EnablePredecode snapshots the fetchable upper memory (user PMEM
// through the IVT) into an immutable decode cache, whose every cached
// address holds its decode and the basic block starting there, and
// installs it, so Step skips isa.Decode on warm paths and the run loop
// executes whole blocks. Call it after LoadFirmware (the snapshot must
// see the final code contents); a write that lands in a code page after
// this point marks it in the space's written-page mask, which sends the
// code there back to live decode. The returned cache may be shared, via
// UsePredecoded, with any machine whose code contents are
// byte-identical — the fleet runner's per-ROM artifact.
func (m *Machine) EnablePredecode() *isa.Predecoded {
	p := predecode(m.Space.Layout, m.Space.PeekWord)
	m.UsePredecoded(p)
	return p
}

// PredecodeImages returns the decode cache EnablePredecode would build
// on a machine of layout l whose memory holds images, loaded in order
// into zeroed memory (a later image's bytes replace an earlier one's),
// without building the machine: only the 256-byte pages the images
// touch are materialized. A machine running an instrumented defense
// holds the EILIDsw ROM image and then its firmware's.
func PredecodeImages(l mem.Layout, images ...*asm.Image) *isa.Predecoded {
	var pages [256]*[256]byte
	for _, img := range images {
		for _, c := range img.Chunks() {
			for i, b := range c.Data {
				a := c.Addr + uint16(i)
				if pages[a>>8] == nil {
					pages[a>>8] = new([256]byte)
				}
				pages[a>>8][a&0xFF] = b
			}
		}
	}
	return predecode(l, func(addr uint16) uint16 {
		pg := pages[addr>>8]
		if pg == nil {
			return 0
		}
		a := addr & 0xFE
		return uint16(pg[a]) | uint16(pg[a+1])<<8
	})
}

// predecode builds the decode cache of layout l's fetchable upper memory
// (user PMEM through the IVT) as read returns it. Only addresses whose
// whole fetch window stays in RAM-backed regions are cached: a window
// that strays into the unmapped hole between the secure ROM and the IVT
// must keep the live path, whose speculative bus reads there return
// 0xFFFF and count bus errors.
func predecode(l mem.Layout, read func(addr uint16) uint16) *isa.Predecoded {
	ramBacked := func(addr uint16) bool {
		switch l.RegionOf(addr) {
		case mem.RegionPMEM, mem.RegionSecureROM, mem.RegionIVT:
			return true
		}
		return false
	}
	return isa.Predecode(read, l.PMEMStart, 0xFFFF, ramBacked)
}

// UsePredecoded installs a cache previously built by EnablePredecode on
// a machine loaded with byte-identical code: its decodes and its blocks
// are one table, shared by every machine holding it. Installing asserts
// the cache matches this machine's memory right now, and settles the
// space to say so (mem.Space.Settle): the written-page mask, the record
// of what may differ from the cache, is cleared without allocating, and
// the base snapshot is dropped, so the next Recycle copies the sealed
// image whole (the ones after it are partial again).
//
// The cache is the one thing that separates the two execution paths.
// With it, the machine runs the production path: threaded-code UOps,
// basic blocks and deadline-batched peripheral ticking. Without it —
// never installed, or removed with UsePredecoded(nil) — the machine is
// the executable reference: live decode, the generic interpreter and a
// peripheral sync after every instruction. The two are cycle-exactly
// equivalent; the differential tests in this package compare them.
func (m *Machine) UsePredecoded(p *isa.Predecoded) {
	m.Space.Settle()
	m.CPU.SetPredecoded(p)
}

// Snapshot seals the machine's current memory image as its recycle
// point. Call it on a fully constructed machine — firmware loaded,
// decode cache installed — before it runs, so the image matches any
// installed cache: sealing clears the written-page mask, which is also
// the cache's record of staleness, and Recycle restores exactly this
// image, so the cache is valid against it without re-scanning anything.
func (m *Machine) Snapshot() {
	m.snap = m.Space.Snapshot()
}

// ErrNoSnapshot is returned by Recycle on a machine that was never
// sealed with Snapshot.
var ErrNoSnapshot = errors.New("core: machine has no sealed snapshot to recycle to")

// Recycle returns the machine to the sealed snapshot state as if it had
// been power-cycled and re-flashed with the snapshot image: memory is
// restored by copy (no re-zeroing, no re-mapping), the CPU and interrupt
// controller return to power-on state, the monitor to its freshly
// constructed one (Clear, as on every boot), all peripherals power on
// (keeping their attached sensor models; the violation latch keeps no
// state), and the shared per-ROM decode cache stays installed: the
// restore clears the written-page mask, and with it the staleness of
// every cached decode, since the restored image is the one the cache
// was built from. A recycled machine is observationally identical to a
// freshly constructed one carrying the same image — the recycle
// differential suites pin that, byte for byte, for every app × variant
// × scenario.
func (m *Machine) Recycle() error {
	if m.snap == nil {
		return ErrNoSnapshot
	}
	if err := m.Space.Restore(m.snap); err != nil {
		return err
	}
	m.CPU.PowerOn()
	m.IRQ.Reset()
	if m.Monitor != nil {
		m.Monitor.Clear()
	}
	m.ResetCount = 0
	m.ResetReasons = nil
	m.lastReason = casu.Violation{}
	m.ctl.halted = false
	m.ctl.code = 0
	m.Port1.PowerOn()
	m.Port2.PowerOn()
	m.TimerA.PowerOn()
	m.ADC.PowerOn()
	m.UART.PowerOn()
	m.LCD.PowerOn()
	m.Ranger.PowerOn()
	m.resyncPeriph()
	return nil
}

// Halted reports whether firmware wrote the simulation-control register.
func (m *Machine) Halted() bool { return m.ctl.halted }

// ExitCode returns the value written to the simulation-control register.
func (m *Machine) ExitCode() uint16 { return m.ctl.code }

// MaxResetReasons bounds how many per-reset violation records a machine
// retains. ResetCount still counts every reset; only the first
// MaxResetReasons reasons (plus the most recent one, for
// RunResult.LastReason) are kept, so a reset storm runs in constant
// memory at fleet scale.
const MaxResetReasons = 8

// deviceReset is the hardware response to a monitor violation: volatile
// memory cleared, CPU rebooted, peripherals' interrupt state dropped.
// Program memory and the secure ROM survive (they are immutable anyway).
func (m *Machine) deviceReset(v casu.Violation) {
	m.ResetCount++
	m.lastReason = v
	if len(m.ResetReasons) < MaxResetReasons {
		m.ResetReasons = append(m.ResetReasons, v)
	}
	m.Space.Reset()
	m.Boot()
}

// Step executes one CPU step, syncs the peripherals and applies the
// reset-on-violation rule. It returns the cycles consumed, and the
// cpu.ExecError of a step that faulted (only live decode can) unless
// the monitor reset the device first.
func (m *Machine) Step() (int, error) {
	n, err := m.CPU.Step()
	// The monitor outranks the fault path: if the instruction tripped a
	// violation (even one that also confused the decoder, e.g. a jump
	// into data), the hardware resets before anything else happens.
	if m.Monitor != nil {
		if v := m.Monitor.Violation(); v != nil {
			m.deviceReset(*v)
			return n, nil
		}
	}
	// A fault (see cpu.ExecError) on real hardware executes garbage;
	// under EILID the W⊕X/immutability monitors normally fire first.
	// Surface it. A faulting step consumes no cycles, so syncing here
	// only delivers the cycles of completed instructions.
	m.syncPeriph()
	return n, err
}

// RunResult summarizes a Run.
type RunResult struct {
	Cycles     uint64 // cycles consumed during this run
	Insns      uint64
	Halted     bool
	ExitCode   uint16
	Resets     int // resets that occurred during this run
	LastReason *casu.Violation
}

// ErrCycleBudget is returned when Run hits maxCycles before the firmware
// halts.
var ErrCycleBudget = errors.New("core: cycle budget exhausted before halt")

// Run executes until the firmware halts via the simulation-control
// register, a fault occurs, or maxCycles elapse.
func (m *Machine) Run(maxCycles uint64) (RunResult, error) {
	return m.runLoop(maxCycles, false)
}

// RunUntilReset executes until a monitor reset happens (attack testing),
// the firmware halts, or maxCycles elapse.
func (m *Machine) RunUntilReset(maxCycles uint64) (RunResult, error) {
	return m.runLoop(maxCycles, true)
}

// runLoop is the hot simulation loop. Unlike Step, it ticks the clocked
// peripherals in batches: each reports the absolute cycle it next acts
// on its own (interrupt, conversion complete), and between that
// deadline and the next peripheral-register write the loop runs the CPU
// back to back. Register accesses in between observe exact state via
// the peripherals' lazy catch-up (periph.Cycled), so batching is
// cycle-exactly equivalent to per-instruction ticking, which the
// reference machine (no decode cache) keeps.
//
// Within a batch the loop consumes whole basic blocks (cpu.RunBlocks)
// while the fused deadline/budget limit exceeds the next block's
// precomputed cycle total, so peripherals, interrupts, the halt latch
// and the cycle budget are checked only at block boundaries; anything a
// block cannot retire bit-exactly (interrupt service, low-power idling,
// stale or unfused code, a block that would straddle the limit) falls
// back to per-instruction Step. Blocks run through interrupt-enabled
// code and through status polls: every peripheral register but UART
// RX declares its reads quiet (mem.QuietLoader), and the EILID gate
// declares which PCs it masks (cpu.IRQGate). On protected machines the
// monitor hears only the fetches its QuietFetch does not call quiet
// inside a block (see cpu.RunBlocks). The reference machine, with no
// cache, runs Step throughout and hears every fetch.
//
// Only Step can fault (see cpu.ExecError), so only its branch returns
// an error. The two branches keep their own violation handling: a
// block's reset syncs the peripherals to the cycle before its last op
// (RunBlocks' lastPre), a step's to the cycle before that step, and
// the reference machine reaches only the second.
func (m *Machine) runLoop(maxCycles uint64, untilReset bool) (RunResult, error) {
	startCycles, startInsns, startResets := m.CPU.Cycles, m.CPU.Insns, m.ResetCount
	// A zero budget can execute nothing: report it as an exhausted
	// budget unconditionally, so callers can tell it apart from a clean
	// halt even when a previous run already halted the firmware.
	if maxCycles == 0 {
		return m.result(startCycles, startInsns, startResets), ErrCycleBudget
	}
	stop := startCycles + maxCycles
	if stop < startCycles { // saturate on overflow
		stop = ^uint64(0)
	}
	cpu := m.CPU
	space := m.Space
	ctl := m.ctl
	mon := m.Monitor
	m.syncPeriph() // anchor the deadline and write generation
	// limit fuses the cycle budget and the earliest peripheral deadline
	// into the single comparison the hot loop makes per instruction; a
	// peripheral-register write (HandlerStores) also forces the slow
	// branch, where budget exhaustion and tick batching are told apart.
	// On the reference machine the limit stays 0, so every iteration
	// syncs, and the block executor is never entered.
	reference := cpu.Predecoded() == nil
	newLimit := func() uint64 {
		if reference {
			return 0
		}
		if m.tickAt < stop {
			return m.tickAt
		}
		return stop
	}
	// Monitor violations must be observed after every instruction that
	// delivered a monitor callback, so the block executor polls this
	// after such fused ops on protected machines; unprotected machines
	// pass nil and pay nothing.
	var stopFn func() bool
	if mon != nil {
		stopFn = func() bool { return mon.Violation() != nil }
	}
	limit := newLimit()
	for !ctl.halted {
		if untilReset && m.ResetCount != startResets {
			break
		}
		if cpu.Cycles >= limit || space.HandlerStores() != m.hGen {
			if cpu.Cycles >= stop {
				m.syncPeriph()
				return m.result(startCycles, startInsns, startResets), ErrCycleBudget
			}
			m.syncPeriph()
			limit = newLimit()
		}
		if !reference {
			if ran, blkPre := cpu.RunBlocks(limit, stopFn); ran {
				if mon != nil {
					if v := mon.Violation(); v != nil {
						m.syncPeriphTo(blkPre)
						m.deviceReset(*v)
						limit = newLimit()
					}
				}
				continue
			}
		}
		pre := cpu.Cycles
		_, err := cpu.Step()
		if mon != nil {
			if v := mon.Violation(); v != nil {
				// Per-instruction ticking delivered every completed
				// instruction's cycles and dropped only the violating
				// one's; match that before the reset re-anchors.
				m.syncPeriphTo(pre)
				m.deviceReset(*v)
				limit = newLimit()
				continue
			}
		}
		if err != nil {
			// A faulting step consumes no cycles (see Machine.Step).
			m.syncPeriph()
			return m.result(startCycles, startInsns, startResets), err
		}
	}
	m.syncPeriph()
	return m.result(startCycles, startInsns, startResets), nil
}

func (m *Machine) result(c0, i0 uint64, r0 int) RunResult {
	res := RunResult{
		Cycles:   m.CPU.Cycles - c0,
		Insns:    m.CPU.Insns - i0,
		Halted:   m.ctl.halted,
		ExitCode: m.ctl.code,
		Resets:   m.ResetCount - r0,
	}
	if m.ResetCount > 0 && res.Resets > 0 {
		v := m.lastReason
		res.LastReason = &v
	}
	return res
}

// ShadowEntries reads the live shadow stack (for tests and debugging; a
// real device cannot do this from non-secure code, but the simulator's
// test harness is "outside the universe").
func (m *Machine) ShadowEntries(cfg Config) []uint16 {
	idx := m.CPU.R[RegIndex]
	if int(idx) > cfg.MaxShadowEntries {
		idx = uint16(cfg.MaxShadowEntries)
	}
	out := make([]uint16, idx)
	for i := range out {
		out[i] = m.Space.LoadWord(cfg.ShadowBase + uint16(2*i))
	}
	return out
}

// FunctionTable reads the live forward-edge table.
func (m *Machine) FunctionTable(cfg Config) []uint16 {
	n := m.Space.LoadWord(cfg.TableCountAddr)
	if int(n) > cfg.MaxFunctions {
		n = uint16(cfg.MaxFunctions)
	}
	out := make([]uint16, n)
	for i := range out {
		out[i] = m.Space.LoadWord(cfg.TableBase + uint16(2*i))
	}
	return out
}

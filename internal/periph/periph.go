// Package periph provides the memory-mapped peripherals of the simulated
// openMSP430 device: GPIO ports, a Timer_A-style timer, an ADC with
// pluggable sensor models, a UART, an HD44780-style character LCD, an
// ultrasonic-ranger front-end and the interrupt controller. These are the
// devices the paper's seven benchmark applications talk to (Seeed Grove
// sensors, the OpenSyringePump stepper, the ticepd msp430-examples).
//
// All peripherals are deterministic: sensor models are fixed functions of
// the sample index, so two runs of the same firmware produce identical
// traces — a property the original-vs-instrumented equivalence tests in
// internal/core rely on.
package periph

import (
	"fmt"
	"math/bits"
)

// Register addresses (inside the peripheral window 0x0000-0x01FF of
// mem.DefaultLayout).
const (
	// GPIO port 1 (byte registers).
	P1INAddr  = 0x0020
	P1OUTAddr = 0x0021
	P1DIRAddr = 0x0022
	P1IFGAddr = 0x0023
	P1IEAddr  = 0x0024
	// GPIO port 2.
	P2INAddr  = 0x0028
	P2OUTAddr = 0x0029
	P2DIRAddr = 0x002A
	P2IFGAddr = 0x002B
	P2IEAddr  = 0x002C

	// UART.
	UTXAddr   = 0x0070 // write: transmit byte
	URXAddr   = 0x0072 // read: next received byte
	USTATAddr = 0x0074 // bit0: rx available, bit1: tx ready (always)

	// ADC.
	ADCCTLAddr = 0x0080 // bit0: start; bits 8..11: channel; bit4: IE
	ADCMEMAddr = 0x0082 // conversion result
	ADCSTAGES  = 0x0084 // bit0: conversion done

	// LCD controller.
	LCDCMDAddr  = 0x0090
	LCDDATAAddr = 0x0092

	// Ultrasonic ranger front-end.
	USTRIGAddr  = 0x00A0 // write: start a ping
	USWIDTHAddr = 0x00A2 // echo width in microseconds (valid when done)
	USSTATAddr  = 0x00A4 // bit0: measurement done

	// EILID violation latch (secure peripheral: only EILIDsw may write;
	// the CASU monitor enforces that and resets on any write).
	ViolationAddr = 0x00F0
)

// Interrupt lines (vector = 0xFFE0 + 2*line). Line 15 is reset.
const (
	IRQPort1      = 4
	IRQADC        = 5
	IRQUltrasonic = 6
	IRQUART       = 7
	IRQTimerA     = 8
)

// NoEvent is the NextEvent sentinel meaning "no pending deadline".
const NoEvent = ^uint64(0)

// Cycled is a clocked peripheral the machine's run loop drives in
// batches instead of once per instruction. A Cycled peripheral keeps an
// internal sync anchor (the absolute cycle it has been ticked through)
// and lazily catches itself up — via its Clock — whenever firmware
// touches one of its registers, so register reads observe exactly the
// state per-instruction ticking would have produced.
type Cycled interface {
	// SyncTo ticks the peripheral forward to the absolute cycle.
	SyncTo(cycle uint64)
	// Resync moves the anchor to cycle without ticking the elapsed
	// time — the machine uses it after device resets and CPU faults,
	// whose cycles per-instruction ticking never delivered either.
	Resync(cycle uint64)
	// NextEvent returns the absolute cycle at which the peripheral will
	// next act on its own (raise an interrupt, complete a conversion),
	// or NoEvent. The run loop must sync it no later than that cycle;
	// syncing earlier is always safe.
	NextEvent() uint64
}

// IRQController collects interrupt requests from peripherals and feeds
// the CPU core (it implements cpu.IRQSource). Requests are raised only
// by peripheral ticks and by register accesses that are not quiet
// loads (see QuietLoad on each peripheral), which is the cpu.IRQSource
// contract block execution relies on.
type IRQController struct {
	pending uint16
}

// Request asserts an interrupt line.
func (q *IRQController) Request(line int) {
	if line >= 0 && line < 16 {
		q.pending |= 1 << line
	}
}

// HighestPending returns the highest pending line number or -1.
func (q *IRQController) HighestPending() int {
	return bits.Len16(q.pending) - 1
}

// Acknowledge clears a pending line.
func (q *IRQController) Acknowledge(line int) {
	q.pending &^= 1 << line
}

// Pending reports whether the line is asserted.
func (q *IRQController) Pending(line int) bool { return q.pending&(1<<line) != 0 }

// Reset clears all pending requests.
func (q *IRQController) Reset() { q.pending = 0 }

// --- GPIO ----------------------------------------------------------------

// OutputEvent records a GPIO output transition for test assertions.
type OutputEvent struct {
	Cycle uint64
	Value uint8
}

// GPIO is an 8-bit port with direction, input, output and edge-interrupt
// flags (P1-style).
type GPIO struct {
	Base uint16 // address of the IN register
	IRQ  *IRQController
	Line int

	In, Out, Dir, IFG, IE uint8

	// Clock supplies the current cycle count for output-event timestamps
	// (wired to the CPU's cycle counter by the machine).
	Clock func() uint64
	// Events is the recorded output-transition history.
	Events []OutputEvent
}

// NewGPIO creates a port at base (IN register address).
func NewGPIO(base uint16, irq *IRQController, line int) *GPIO {
	return &GPIO{Base: base, IRQ: irq, Line: line, Clock: func() uint64 { return 0 }}
}

// PowerOn returns the port to its freshly constructed state: registers
// zeroed, output-event history dropped.
func (g *GPIO) PowerOn() {
	g.In, g.Out, g.Dir, g.IFG, g.IE = 0, 0, 0, 0, 0
	g.Events = nil
}

// SetInput drives the port's input pins from the outside world, latching
// edge interrupts for newly risen bits that are enabled.
func (g *GPIO) SetInput(v uint8) {
	rising := v &^ g.In
	g.In = v
	if fired := rising & g.IE; fired != 0 {
		g.IFG |= fired
		if g.IRQ != nil {
			g.IRQ.Request(g.Line)
		}
	}
}

// LoadByte implements mem.ByteHandler.
func (g *GPIO) LoadByte(addr uint16) uint8 {
	switch addr - g.Base {
	case 0:
		return g.In
	case 1:
		return g.Out
	case 2:
		return g.Dir
	case 3:
		return g.IFG
	case 4:
		return g.IE
	}
	return 0
}

// StoreByte implements mem.ByteHandler.
func (g *GPIO) StoreByte(addr uint16, v uint8) {
	switch addr - g.Base {
	case 0: // IN is read-only
	case 1:
		if g.Out != v {
			g.Out = v
			g.Events = append(g.Events, OutputEvent{Cycle: g.Clock(), Value: v})
		}
	case 2:
		g.Dir = v
	case 3:
		g.IFG = v
	case 4:
		g.IE = v
	}
}

// LoadWord implements mem.Handler by pairing byte registers.
func (g *GPIO) LoadWord(addr uint16) uint16 {
	return uint16(g.LoadByte(addr)) | uint16(g.LoadByte(addr+1))<<8
}

// StoreWord implements mem.Handler.
func (g *GPIO) StoreWord(addr uint16, v uint16) {
	g.StoreByte(addr, uint8(v))
	g.StoreByte(addr+1, uint8(v>>8))
}

// QuietLoad implements mem.QuietLoader: port reads have no side effects.
func (g *GPIO) QuietLoad(addr uint16) bool { return true }

// HoldsStill implements mem.StillHolder: the registers change only on
// stores and on SetInput, which the harness calls between runs.
func (g *GPIO) HoldsStill(addr uint16) bool { return true }

// Span returns the register range for bus mapping.
func (g *GPIO) Span() (lo, hi uint16) { return g.Base, g.Base + 5 }

// --- Timer ---------------------------------------------------------------

// Timer control bits.
const (
	TimerModeUp = 1 << 0 // count 0..CCR0 repeatedly
	TimerClear  = 1 << 1 // write-1: reset counter
	TimerIE     = 1 << 2 // interrupt on wrap
	TimerIFG    = 1 << 3
)

// Timer is a Timer_A-style up counter clocked by MCLK.
type Timer struct {
	Base uint16 // TACTL address; TAR at +0x10, CCR0 at +0x12
	IRQ  *IRQController
	Line int

	CTL  uint16
	TAR  uint16
	CCR0 uint16
	// Wraps counts CCR0 rollovers (handy for tests and app timing).
	Wraps uint64

	// Clock supplies the current cycle count for lazy catch-up on
	// register access (wired to the CPU's cycle counter by the machine;
	// nil for standalone use, where Tick drives the timer directly).
	Clock  func() uint64
	synced uint64
}

// NewTimer creates a timer with registers at base.
func NewTimer(base uint16, irq *IRQController, line int) *Timer {
	return &Timer{Base: base, IRQ: irq, Line: line}
}

// PowerOn returns the timer to its freshly constructed state: registers
// and the wrap count zeroed, sync anchor back at cycle 0.
func (t *Timer) PowerOn() {
	t.CTL, t.TAR, t.CCR0 = 0, 0, 0
	t.Wraps = 0
	t.synced = 0
}

// Tick advances the timer by CPU cycles. The wrap count, IFG latching
// and interrupt requests are computed in closed form but are identical
// to stepping the counter one cycle at a time (the pending bit a wrap
// requests is idempotent).
func (t *Timer) Tick(cycles int) {
	if t.CTL&TimerModeUp == 0 || t.CCR0 == 0 || cycles <= 0 {
		return
	}
	n := uint64(cycles)
	first := t.ticksToWrap()
	if n < first {
		t.TAR += uint16(n) // may pass 0xFFFF and overflow to 0, as TAR++ does
		return
	}
	n -= first
	period := uint64(t.CCR0)
	t.Wraps += 1 + n/period
	t.TAR = uint16(n % period)
	t.CTL |= TimerIFG
	if t.CTL&TimerIE != 0 && t.IRQ != nil {
		t.IRQ.Request(t.Line)
	}
}

// ticksToWrap counts the increments until the counter next wraps,
// replicating the per-cycle sequence exactly: TAR increments (with
// uint16 overflow) before the >= CCR0 comparison, so a TAR of 0xFFFF
// rolls over to 0 without wrapping and counts a full period from there,
// while any other at/past-CCR0 value wraps on its next increment.
func (t *Timer) ticksToWrap() uint64 {
	switch {
	case t.TAR < t.CCR0:
		return uint64(t.CCR0 - t.TAR)
	case t.TAR == 0xFFFF:
		return 1 + uint64(t.CCR0)
	}
	return 1
}

// SyncTo implements Cycled.
func (t *Timer) SyncTo(cycle uint64) {
	if cycle > t.synced {
		t.Tick(int(cycle - t.synced))
		t.synced = cycle
	}
}

// Resync implements Cycled.
func (t *Timer) Resync(cycle uint64) { t.synced = cycle }

// NextEvent implements Cycled: the cycle of the next CCR0 wrap.
func (t *Timer) NextEvent() uint64 {
	if t.CTL&TimerModeUp == 0 || t.CCR0 == 0 {
		return NoEvent
	}
	return t.synced + t.ticksToWrap()
}

// lazySync catches the timer up to the live clock before a register
// access observes or mutates its state.
func (t *Timer) lazySync() {
	if t.Clock != nil {
		t.SyncTo(t.Clock())
	}
}

// LoadWord implements mem.Handler.
func (t *Timer) LoadWord(addr uint16) uint16 {
	t.lazySync()
	switch addr - t.Base {
	case 0x00:
		return t.CTL
	case 0x10:
		return t.TAR
	case 0x12:
		return t.CCR0
	}
	return 0
}

// StoreWord implements mem.Handler.
func (t *Timer) StoreWord(addr uint16, v uint16) {
	t.lazySync()
	switch addr - t.Base {
	case 0x00:
		t.CTL = v &^ TimerClear
		if v&TimerClear != 0 {
			t.TAR = 0
		}
	case 0x10:
		t.TAR = v
	case 0x12:
		t.CCR0 = v
	}
}

// QuietLoad implements mem.QuietLoader: a read only catches the counter
// up, and before NextEvent that wraps nothing and requests nothing.
func (t *Timer) QuietLoad(addr uint16) bool { return true }

// HoldsStill implements mem.StillHolder: the counter moves every cycle,
// while the control word (its IFG bit is set at a wrap, the timer's
// event) and CCR0 change only at the wrap or on a store.
func (t *Timer) HoldsStill(addr uint16) bool { return addr != t.Base+0x10 }

// Span returns the register range for bus mapping.
func (t *Timer) Span() (lo, hi uint16) { return t.Base, t.Base + 0x13 }

// --- ADC -----------------------------------------------------------------

// SensorModel produces the ADC reading for conversion n of a channel.
// Models must be pure functions so firmware runs are reproducible.
type SensorModel func(n int) uint16

// ADC control bits.
const (
	ADCStart = 1 << 0
	ADCIE    = 1 << 4
	ADCDone  = 1 << 0 // in the status register
)

// ADCConversionCycles models the sample-and-convert latency in MCLK
// cycles. A real ADC10 runs ~13 cycles of its own ~5 MHz oscillator
// while the 100 MHz core waits, so the CPU sees a few hundred cycles.
const ADCConversionCycles = 240

// ADC is a successive-approximation converter with per-channel sensor
// models.
type ADC struct {
	IRQ  *IRQController
	Line int

	channels map[uint8]SensorModel
	counts   map[uint8]int

	CTL     uint16
	MEM     uint16
	done    bool
	busyFor int // cycles remaining in the active conversion
	active  uint8

	// Clock supplies the current cycle count for lazy catch-up on
	// register access (nil for standalone use).
	Clock  func() uint64
	synced uint64
}

// NewADC creates an ADC with no channels attached.
func NewADC(irq *IRQController, line int) *ADC {
	return &ADC{IRQ: irq, Line: line, channels: map[uint8]SensorModel{}, counts: map[uint8]int{}}
}

// Attach connects a sensor model to a channel.
func (a *ADC) Attach(channel uint8, m SensorModel) {
	a.channels[channel] = m
}

// PowerOn returns the converter to its freshly constructed state —
// registers cleared, no conversion in flight, per-channel sample
// indices rewound — while keeping the attached sensor models (they are
// wiring, not run-time state).
func (a *ADC) PowerOn() {
	a.CTL, a.MEM = 0, 0
	a.done = false
	a.busyFor = 0
	a.active = 0
	clear(a.counts)
	a.synced = 0
}

// SyncTo implements Cycled.
func (a *ADC) SyncTo(cycle uint64) {
	if cycle > a.synced {
		a.Tick(int(cycle - a.synced))
		a.synced = cycle
	}
}

// Resync implements Cycled.
func (a *ADC) Resync(cycle uint64) { a.synced = cycle }

// NextEvent implements Cycled: the completion cycle of an in-flight
// conversion.
func (a *ADC) NextEvent() uint64 {
	if a.busyFor <= 0 {
		return NoEvent
	}
	return a.synced + uint64(a.busyFor)
}

func (a *ADC) lazySync() {
	if a.Clock != nil {
		a.SyncTo(a.Clock())
	}
}

// Tick advances an in-flight conversion.
func (a *ADC) Tick(cycles int) {
	if a.busyFor <= 0 {
		return
	}
	a.busyFor -= cycles
	if a.busyFor > 0 {
		return
	}
	a.busyFor = 0
	n := a.counts[a.active]
	a.counts[a.active] = n + 1
	if m, ok := a.channels[a.active]; ok {
		a.MEM = m(n) & 0x0FFF // 12-bit converter
	} else {
		a.MEM = 0
	}
	a.done = true
	if a.CTL&ADCIE != 0 && a.IRQ != nil {
		a.IRQ.Request(a.Line)
	}
}

// LoadWord implements mem.Handler.
func (a *ADC) LoadWord(addr uint16) uint16 {
	a.lazySync()
	switch addr {
	case ADCCTLAddr:
		return a.CTL
	case ADCMEMAddr:
		return a.MEM
	case ADCSTAGES:
		if a.done {
			return ADCDone
		}
		return 0
	}
	return 0
}

// StoreWord implements mem.Handler.
func (a *ADC) StoreWord(addr uint16, v uint16) {
	a.lazySync()
	switch addr {
	case ADCCTLAddr:
		a.CTL = v &^ ADCStart
		if v&ADCStart != 0 {
			a.active = uint8(v >> 8 & 0xF)
			a.busyFor = ADCConversionCycles
			a.done = false
		}
	case ADCMEMAddr: // read-only
	}
}

// QuietLoad implements mem.QuietLoader: a read only catches an
// in-flight conversion up, and before NextEvent it does not complete.
func (a *ADC) QuietLoad(addr uint16) bool { return true }

// HoldsStill implements mem.StillHolder: the result and the done flag
// change when a conversion completes, the ADC's event, and the control
// word only on a store.
func (a *ADC) HoldsStill(addr uint16) bool { return true }

// Span returns the register range for bus mapping.
func (a *ADC) Span() (lo, hi uint16) { return ADCCTLAddr, ADCSTAGES + 1 }

// --- UART ----------------------------------------------------------------

// UART status bits.
const (
	UARTRxAvail = 1 << 0
	UARTTxReady = 1 << 1
)

// UART is a byte-oriented serial port. Transmit completes immediately
// (the paper's applications use polling output); received bytes are
// queued by the test harness via Feed.
type UART struct {
	IRQ  *IRQController
	Line int

	// TX is everything the firmware transmitted.
	TX []byte
	rx []byte
}

// NewUART creates a UART.
func NewUART(irq *IRQController, line int) *UART {
	return &UART{IRQ: irq, Line: line}
}

// PowerOn returns the port to its freshly constructed state: both the
// transmit transcript and any unconsumed receive bytes are dropped.
func (u *UART) PowerOn() {
	u.TX = nil
	u.rx = nil
}

// Feed queues bytes on the receive side and raises the RX interrupt.
func (u *UART) Feed(data []byte) {
	u.rx = append(u.rx, data...)
	if len(u.rx) > 0 && u.IRQ != nil {
		u.IRQ.Request(u.Line)
	}
}

// Transcript returns the transmitted bytes as a string.
func (u *UART) Transcript() string { return string(u.TX) }

// LoadWord implements mem.Handler.
func (u *UART) LoadWord(addr uint16) uint16 {
	switch addr {
	case URXAddr:
		if len(u.rx) == 0 {
			return 0
		}
		b := u.rx[0]
		u.rx = u.rx[1:]
		if len(u.rx) > 0 && u.IRQ != nil {
			u.IRQ.Request(u.Line)
		}
		return uint16(b)
	case USTATAddr:
		st := uint16(UARTTxReady)
		if len(u.rx) > 0 {
			st |= UARTRxAvail
		}
		return st
	}
	return 0
}

// StoreWord implements mem.Handler.
func (u *UART) StoreWord(addr uint16, v uint16) {
	if addr == UTXAddr {
		u.TX = append(u.TX, byte(v))
	}
}

// QuietLoad implements mem.QuietLoader. Reading URX pops a byte and
// re-raises the RX request while bytes remain, so it is the one loud
// register; the status and transmit registers read without effect.
func (u *UART) QuietLoad(addr uint16) bool { return addr != URXAddr }

// HoldsStill implements mem.StillHolder: the RX-available bit of the
// status register changes only when an RX read pops a byte (a loud
// load) or Feed queues one, which callers do between runs; RX itself
// reads the next byte each time.
func (u *UART) HoldsStill(addr uint16) bool { return addr != URXAddr }

// Span returns the register range for bus mapping.
func (u *UART) Span() (lo, hi uint16) { return UTXAddr, USTATAddr + 1 }

// --- LCD -----------------------------------------------------------------

// LCD command opcodes (HD44780 subset).
const (
	LCDCmdClear   = 0x01
	LCDCmdHome    = 0x02
	LCDCmdSetAddr = 0x80 // | ddram address
)

// LCDRows and LCDCols fix the panel geometry (16x2, the ubiquitous
// hobbyist module).
const (
	LCDRows = 2
	LCDCols = 16
)

// LCD is a character display. Writes land in a screen buffer the tests
// (and examples) can read back.
type LCD struct {
	screen [LCDRows][LCDCols]byte
	addr   int
}

// NewLCD creates a cleared display.
func NewLCD() *LCD {
	l := &LCD{}
	l.clear()
	return l
}

func (l *LCD) clear() {
	for r := range l.screen {
		for c := range l.screen[r] {
			l.screen[r][c] = ' '
		}
	}
	l.addr = 0
}

// PowerOn returns the display to its freshly constructed state: screen
// cleared, cursor home.
func (l *LCD) PowerOn() { l.clear() }

// Row returns the text of row r.
func (l *LCD) Row(r int) string {
	if r < 0 || r >= LCDRows {
		return ""
	}
	return string(l.screen[r][:])
}

// LoadWord implements mem.Handler (status: always ready).
func (l *LCD) LoadWord(addr uint16) uint16 { return 0 }

// StoreWord implements mem.Handler.
func (l *LCD) StoreWord(addr uint16, v uint16) {
	switch addr {
	case LCDCMDAddr:
		switch {
		case v == LCDCmdClear:
			l.clear()
		case v == LCDCmdHome:
			l.addr = 0
		case v&LCDCmdSetAddr != 0:
			l.addr = int(v & 0x7F)
		}
	case LCDDATAAddr:
		row, col := l.addr/0x40, l.addr%0x40
		if row < LCDRows && col < LCDCols {
			l.screen[row][col] = byte(v)
		}
		l.addr++
	}
}

// QuietLoad implements mem.QuietLoader: status reads have no effect.
func (l *LCD) QuietLoad(addr uint16) bool { return true }

// HoldsStill implements mem.StillHolder: the status reads as ready.
func (l *LCD) HoldsStill(addr uint16) bool { return true }

// Span returns the register range for bus mapping.
func (l *LCD) Span() (lo, hi uint16) { return LCDCMDAddr, LCDDATAAddr + 1 }

// --- Ultrasonic ranger ---------------------------------------------------

// Ultrasonic models an HC-SR04-style ranger: firmware writes TRIG, the
// measurement completes after a flight time proportional to the modeled
// distance, and the echo width (µs) appears in the WIDTH register.
type Ultrasonic struct {
	IRQ  *IRQController
	Line int

	// Distance returns the distance in centimetres for ping n.
	Distance func(n int) uint16

	width   uint16
	done    bool
	busyFor int
	pings   int

	// Clock supplies the current cycle count for lazy catch-up on
	// register access (nil for standalone use).
	Clock  func() uint64
	synced uint64
}

// SyncTo implements Cycled.
func (u *Ultrasonic) SyncTo(cycle uint64) {
	if cycle > u.synced {
		u.Tick(int(cycle - u.synced))
		u.synced = cycle
	}
}

// Resync implements Cycled.
func (u *Ultrasonic) Resync(cycle uint64) { u.synced = cycle }

// NextEvent implements Cycled: the completion cycle of an in-flight
// measurement.
func (u *Ultrasonic) NextEvent() uint64 {
	if u.busyFor <= 0 {
		return NoEvent
	}
	return u.synced + uint64(u.busyFor)
}

func (u *Ultrasonic) lazySync() {
	if u.Clock != nil {
		u.SyncTo(u.Clock())
	}
}

// NewUltrasonic creates a ranger with a fixed 25 cm target.
func NewUltrasonic(irq *IRQController, line int) *Ultrasonic {
	return &Ultrasonic{IRQ: irq, Line: line, Distance: func(int) uint16 { return 25 }}
}

// PowerOn returns the ranger to its freshly constructed state — no
// measurement in flight, ping index rewound — while keeping the
// attached distance model.
func (u *Ultrasonic) PowerOn() {
	u.width = 0
	u.done = false
	u.busyFor = 0
	u.pings = 0
	u.synced = 0
}

// echo width: ~58 µs per cm (HC-SR04 datasheet figure).
const usPerCm = 58

// UltrasonicLatency is the MCLK-cycle delay between trigger and result
// (transducer settling plus a scaled-down echo flight time; the actual
// per-distance timing is folded into the width register).
const UltrasonicLatency = 2400

// Tick advances an in-flight measurement.
func (u *Ultrasonic) Tick(cycles int) {
	if u.busyFor <= 0 {
		return
	}
	u.busyFor -= cycles
	if u.busyFor > 0 {
		return
	}
	u.busyFor = 0
	d := u.Distance(u.pings)
	u.pings++
	u.width = d * usPerCm
	u.done = true
	if u.IRQ != nil {
		u.IRQ.Request(u.Line)
	}
}

// LoadWord implements mem.Handler.
func (u *Ultrasonic) LoadWord(addr uint16) uint16 {
	u.lazySync()
	switch addr {
	case USWIDTHAddr:
		return u.width
	case USSTATAddr:
		if u.done {
			return 1
		}
		return 0
	}
	return 0
}

// StoreWord implements mem.Handler.
func (u *Ultrasonic) StoreWord(addr uint16, v uint16) {
	u.lazySync()
	if addr == USTRIGAddr && v != 0 {
		u.done = false
		u.busyFor = UltrasonicLatency
	}
}

// QuietLoad implements mem.QuietLoader: a read only catches an
// in-flight measurement up, and before NextEvent it does not complete.
func (u *Ultrasonic) QuietLoad(addr uint16) bool { return true }

// HoldsStill implements mem.StillHolder: the width and the done flag
// change when a measurement completes, the ranger's event.
func (u *Ultrasonic) HoldsStill(addr uint16) bool { return true }

// Span returns the register range for bus mapping.
func (u *Ultrasonic) Span() (lo, hi uint16) { return USTRIGAddr, USSTATAddr + 1 }

// --- Violation latch -------------------------------------------------------

// ViolationLatch is the secure MMIO register EILIDsw writes when a CFI
// check fails. The CASU monitor hears every write to it on the data bus
// and treats it as the reset trigger; writes from outside the secure
// ROM are themselves violations. The register itself keeps nothing: it
// reads as zero and ignores the value written.
type ViolationLatch struct{}

// LoadWord implements mem.Handler (reads as zero).
func (v *ViolationLatch) LoadWord(addr uint16) uint16 { return 0 }

// StoreWord implements mem.Handler: the monitor, not the register, acts
// on the store.
func (v *ViolationLatch) StoreWord(addr uint16, val uint16) {}

// QuietLoad implements mem.QuietLoader: the latch reads as zero.
func (v *ViolationLatch) QuietLoad(addr uint16) bool { return true }

// HoldsStill implements mem.StillHolder: the latch reads as zero.
func (v *ViolationLatch) HoldsStill(addr uint16) bool { return true }

// Span returns the register range for bus mapping.
func (v *ViolationLatch) Span() (lo, hi uint16) { return ViolationAddr, ViolationAddr + 1 }

// --- Standard sensor models ----------------------------------------------

// LightSensorModel is a deterministic ambient-light curve: a slow
// day/night ramp with a dip in the middle (samples in 12-bit range).
func LightSensorModel(n int) uint16 {
	phase := n % 64
	var v int
	if phase < 32 {
		v = 200 + phase*100
	} else {
		v = 200 + (63-phase)*100
	}
	return uint16(v)
}

// TempSensorModel ramps from 20.0°C to 35.9°C in tenths, encoded as the
// raw ADC value of an LM35-style sensor (10 mV/°C, 3.3V ref, 12 bits).
func TempSensorModel(n int) uint16 {
	tenths := 200 + n%160
	return uint16(tenths * 4096 / 3300)
}

// FlameSensorModel is quiet noise with a fire event between samples 40
// and 48 (values above 0x0800 mean "flame detected").
func FlameSensorModel(n int) uint16 {
	if k := n % 64; k >= 40 && k < 48 {
		return 0x0900 + uint16(k)*7
	}
	return 0x0100 + uint16(n%16)*3
}

// RangerDistanceModel is a target approaching from 100 cm to 5 cm and
// retreating, 5 cm per ping.
func RangerDistanceModel(n int) uint16 {
	k := n % 38
	if k < 19 {
		return uint16(100 - 5*k)
	}
	return uint16(5 + 5*(k-19))
}

// String renders the LCD contents for debugging.
func (l *LCD) String() string {
	return fmt.Sprintf("[%s]\n[%s]", l.Row(0), l.Row(1))
}

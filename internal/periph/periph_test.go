package periph

import (
	"testing"
	"testing/quick"
)

func TestIRQControllerPriority(t *testing.T) {
	q := &IRQController{}
	if q.HighestPending() != -1 {
		t.Error("empty controller should report -1")
	}
	q.Request(IRQPort1)
	q.Request(IRQTimerA)
	if got := q.HighestPending(); got != IRQTimerA {
		t.Errorf("HighestPending = %d, want timer (%d)", got, IRQTimerA)
	}
	q.Acknowledge(IRQTimerA)
	if got := q.HighestPending(); got != IRQPort1 {
		t.Errorf("after ack: %d, want port1 (%d)", got, IRQPort1)
	}
	q.Acknowledge(IRQPort1)
	if q.HighestPending() != -1 {
		t.Error("controller should drain")
	}
	q.Request(20) // out of range: ignored
	if q.HighestPending() != -1 {
		t.Error("out-of-range line accepted")
	}
}

func TestGPIOReadWrite(t *testing.T) {
	q := &IRQController{}
	g := NewGPIO(P1INAddr, q, IRQPort1)
	g.StoreByte(P1DIRAddr, 0xF0)
	if g.LoadByte(P1DIRAddr) != 0xF0 {
		t.Error("DIR readback failed")
	}
	g.StoreByte(P1OUTAddr, 0xAA)
	if g.LoadByte(P1OUTAddr) != 0xAA {
		t.Error("OUT readback failed")
	}
	if len(g.Events) != 1 || g.Events[0].Value != 0xAA {
		t.Errorf("output events = %+v", g.Events)
	}
	// Writing the same value records no event.
	g.StoreByte(P1OUTAddr, 0xAA)
	if len(g.Events) != 1 {
		t.Error("duplicate output value recorded")
	}
	// IN is read-only.
	g.StoreByte(P1INAddr, 0xFF)
	if g.LoadByte(P1INAddr) != 0 {
		t.Error("IN should be read-only")
	}
}

func TestGPIOEdgeInterrupt(t *testing.T) {
	q := &IRQController{}
	g := NewGPIO(P1INAddr, q, IRQPort1)
	g.StoreByte(P1IEAddr, 0x01)
	g.SetInput(0x02) // wrong pin: no interrupt
	if q.Pending(IRQPort1) {
		t.Error("interrupt on non-enabled pin")
	}
	g.SetInput(0x03) // pin0 rises
	if !q.Pending(IRQPort1) {
		t.Error("no interrupt on enabled rising edge")
	}
	if g.LoadByte(P1IFGAddr)&0x01 == 0 {
		t.Error("IFG not latched")
	}
	q.Acknowledge(IRQPort1)
	g.SetInput(0x03) // no edge
	if q.Pending(IRQPort1) {
		t.Error("interrupt without edge")
	}
}

func TestGPIOWordAccess(t *testing.T) {
	g := NewGPIO(P1INAddr, nil, IRQPort1)
	g.StoreWord(P1OUTAddr, 0x22AA) // OUT=0xAA, DIR=0x22 (byte pair)
	if g.Out != 0xAA || g.Dir != 0x22 {
		t.Errorf("word store: out=0x%02x dir=0x%02x", g.Out, g.Dir)
	}
	if got := g.LoadWord(P1OUTAddr); got != 0x22AA {
		t.Errorf("word load = 0x%04x", got)
	}
}

func TestTimerUpModeAndIRQ(t *testing.T) {
	q := &IRQController{}
	tm := NewTimer(0x0160, q, IRQTimerA)
	tm.StoreWord(0x0172, 100)                 // CCR0
	tm.StoreWord(0x0160, TimerModeUp|TimerIE) // start
	tm.Tick(99)
	if q.Pending(IRQTimerA) {
		t.Error("interrupt before CCR0 reached")
	}
	tm.Tick(1)
	if !q.Pending(IRQTimerA) {
		t.Error("no interrupt at CCR0")
	}
	if tm.TAR != 0 {
		t.Errorf("TAR = %d, want 0 after wrap", tm.TAR)
	}
	if tm.Wraps != 1 {
		t.Errorf("Wraps = %d", tm.Wraps)
	}
	// Stopped timer does not advance.
	tm.StoreWord(0x0160, 0)
	tm.Tick(1000)
	if tm.TAR != 0 {
		t.Error("stopped timer advanced")
	}
	// Clear bit resets TAR and is not sticky.
	tm.StoreWord(0x0170, 55)
	tm.StoreWord(0x0160, TimerModeUp|TimerClear)
	if tm.TAR != 0 {
		t.Error("TimerClear did not reset TAR")
	}
	if tm.CTL&TimerClear != 0 {
		t.Error("TimerClear stuck in CTL")
	}
}

func TestADCConversion(t *testing.T) {
	q := &IRQController{}
	a := NewADC(q, IRQADC)
	a.Attach(3, func(n int) uint16 { return uint16(0x100 + n) })
	a.StoreWord(ADCCTLAddr, ADCStart|3<<8|ADCIE)
	if a.LoadWord(ADCSTAGES) != 0 {
		t.Error("done before conversion time")
	}
	a.Tick(ADCConversionCycles)
	if a.LoadWord(ADCSTAGES) != ADCDone {
		t.Error("conversion did not complete")
	}
	if got := a.LoadWord(ADCMEMAddr); got != 0x100 {
		t.Errorf("first sample = 0x%04x", got)
	}
	if !q.Pending(IRQADC) {
		t.Error("ADC IE set but no interrupt")
	}
	// Second conversion advances the sample index.
	a.StoreWord(ADCCTLAddr, ADCStart|3<<8)
	a.Tick(ADCConversionCycles)
	if got := a.LoadWord(ADCMEMAddr); got != 0x101 {
		t.Errorf("second sample = 0x%04x", got)
	}
	// Unattached channel reads zero.
	a.StoreWord(ADCCTLAddr, ADCStart|9<<8)
	a.Tick(ADCConversionCycles)
	if a.LoadWord(ADCMEMAddr) != 0 {
		t.Error("unattached channel should read 0")
	}
}

func TestADC12BitClamp(t *testing.T) {
	a := NewADC(nil, IRQADC)
	a.Attach(0, func(int) uint16 { return 0xFFFF })
	a.StoreWord(ADCCTLAddr, ADCStart)
	a.Tick(ADCConversionCycles)
	if got := a.LoadWord(ADCMEMAddr); got != 0x0FFF {
		t.Errorf("12-bit clamp: 0x%04x", got)
	}
}

func TestUARTTransmitReceive(t *testing.T) {
	q := &IRQController{}
	u := NewUART(q, IRQUART)
	if u.LoadWord(USTATAddr)&UARTTxReady == 0 {
		t.Error("TX should always be ready")
	}
	u.StoreWord(UTXAddr, 'H')
	u.StoreWord(UTXAddr, 'i')
	if u.Transcript() != "Hi" {
		t.Errorf("transcript = %q", u.Transcript())
	}
	if u.LoadWord(USTATAddr)&UARTRxAvail != 0 {
		t.Error("RX available with empty queue")
	}
	u.Feed([]byte("ok"))
	if !q.Pending(IRQUART) {
		t.Error("no RX interrupt")
	}
	if u.LoadWord(USTATAddr)&UARTRxAvail == 0 {
		t.Error("RX not available after feed")
	}
	if got := u.LoadWord(URXAddr); got != 'o' {
		t.Errorf("rx byte = %c", got)
	}
	if got := u.LoadWord(URXAddr); got != 'k' {
		t.Errorf("rx byte = %c", got)
	}
	if u.LoadWord(URXAddr) != 0 {
		t.Error("empty rx should read 0")
	}
}

func TestLCD(t *testing.T) {
	l := NewLCD()
	for _, b := range []byte("Hello") {
		l.StoreWord(LCDDATAAddr, uint16(b))
	}
	l.StoreWord(LCDCMDAddr, LCDCmdSetAddr|0x40) // row 1
	for _, b := range []byte("World") {
		l.StoreWord(LCDDATAAddr, uint16(b))
	}
	if got := l.Row(0); got != "Hello           " {
		t.Errorf("row0 = %q", got)
	}
	if got := l.Row(1); got != "World           " {
		t.Errorf("row1 = %q", got)
	}
	l.StoreWord(LCDCMDAddr, LCDCmdClear)
	if got := l.Row(0); got != "                " {
		t.Errorf("after clear row0 = %q", got)
	}
	l.StoreWord(LCDCMDAddr, LCDCmdHome)
	l.StoreWord(LCDDATAAddr, 'X')
	if l.Row(0)[0] != 'X' {
		t.Error("home did not reset address")
	}
	if l.Row(-1) != "" || l.Row(2) != "" {
		t.Error("out-of-range rows should be empty")
	}
}

func TestUltrasonic(t *testing.T) {
	q := &IRQController{}
	u := NewUltrasonic(q, IRQUltrasonic)
	u.Distance = func(n int) uint16 { return uint16(10 + n) }
	u.StoreWord(USTRIGAddr, 1)
	if u.LoadWord(USSTATAddr) != 0 {
		t.Error("done immediately after trigger")
	}
	u.Tick(UltrasonicLatency)
	if u.LoadWord(USSTATAddr) != 1 {
		t.Error("measurement did not complete")
	}
	if got := u.LoadWord(USWIDTHAddr); got != 10*usPerCm {
		t.Errorf("width = %d, want %d", got, 10*usPerCm)
	}
	if !q.Pending(IRQUltrasonic) {
		t.Error("no completion interrupt")
	}
	u.StoreWord(USTRIGAddr, 1)
	u.Tick(UltrasonicLatency)
	if got := u.LoadWord(USWIDTHAddr); got != 11*usPerCm {
		t.Errorf("second width = %d", got)
	}
}

// TestViolationLatch: the latch keeps nothing; it reads as zero before
// and after a store (the monitor, not the register, acts on the store).
func TestViolationLatch(t *testing.T) {
	v := &ViolationLatch{}
	if v.LoadWord(ViolationAddr) != 0 {
		t.Error("latch should read 0")
	}
	v.StoreWord(ViolationAddr, 7)
	if v.LoadWord(ViolationAddr) != 0 {
		t.Error("latch reads the stored value")
	}
}

func TestSensorModelsDeterministic(t *testing.T) {
	models := map[string]SensorModel{
		"light": LightSensorModel,
		"temp":  TempSensorModel,
		"flame": FlameSensorModel,
	}
	for name, m := range models {
		for i := 0; i < 100; i++ {
			if m(i) != m(i) {
				t.Errorf("%s model not deterministic at %d", name, i)
			}
			if m(i) > 0x0FFF {
				t.Errorf("%s model exceeds 12 bits at %d: 0x%04x", name, i, m(i))
			}
		}
	}
	// Flame event window.
	if FlameSensorModel(42) < 0x0800 {
		t.Error("flame model should spike in the event window")
	}
	if FlameSensorModel(10) >= 0x0800 {
		t.Error("flame model should be quiet outside the window")
	}
}

func TestRangerModelBounds(t *testing.T) {
	f := func(n uint8) bool {
		d := RangerDistanceModel(int(n))
		return d >= 5 && d <= 100
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIRQControllerProperty(t *testing.T) {
	// Request then acknowledge always drains; highest pending is maximal.
	f := func(lines []uint8) bool {
		q := &IRQController{}
		max := -1
		for _, l := range lines {
			line := int(l % 15) // avoid reset line for this property
			q.Request(line)
			if line > max {
				max = line
			}
		}
		if len(lines) == 0 {
			return q.HighestPending() == -1
		}
		if q.HighestPending() != max {
			return false
		}
		for i := 0; i < 16; i++ {
			q.Acknowledge(i)
		}
		return q.HighestPending() == -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

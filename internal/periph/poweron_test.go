package periph

import "testing"

// TestPowerOnRestoresFreshState drives every peripheral into a dirty
// state and asserts PowerOn returns it to the freshly constructed one —
// the contract core.Machine.Recycle relies on for byte-identical
// recycled-vs-fresh runs. Attached models (sensor curves, the ranger's
// distance function) are wiring, not run-time state, and must survive.
func TestPowerOnRestoresFreshState(t *testing.T) {
	irq := &IRQController{}

	g := NewGPIO(P1INAddr, irq, IRQPort1)
	g.StoreByte(P1OUTAddr, 0xAA)
	g.StoreByte(P1DIRAddr, 0xFF)
	g.StoreByte(P1IEAddr, 0x0F)
	g.SetInput(0x05)
	g.PowerOn()
	if g.In != 0 || g.Out != 0 || g.Dir != 0 || g.IFG != 0 || g.IE != 0 || g.Events != nil {
		t.Errorf("GPIO not fresh after PowerOn: %+v", g)
	}

	tm := NewTimer(0x0160, irq, IRQTimerA)
	tm.StoreWord(0x0172, 100)
	tm.StoreWord(0x0160, TimerModeUp|TimerIE)
	tm.SyncTo(1000)
	if tm.Wraps == 0 {
		t.Fatal("setup: timer never wrapped")
	}
	tm.PowerOn()
	if tm.CTL != 0 || tm.TAR != 0 || tm.CCR0 != 0 || tm.Wraps != 0 || tm.synced != 0 {
		t.Errorf("Timer not fresh after PowerOn: %+v", tm)
	}

	a := NewADC(irq, IRQADC)
	a.Attach(0, LightSensorModel)
	a.StoreWord(ADCCTLAddr, ADCStart)
	a.SyncTo(uint64(ADCConversionCycles) + 1)
	first := a.MEM
	a.StoreWord(ADCCTLAddr, ADCStart)
	a.SyncTo(2 * uint64(ADCConversionCycles+1))
	if a.MEM == first {
		t.Fatal("setup: ADC sample index never advanced")
	}
	a.PowerOn()
	if a.CTL != 0 || a.MEM != 0 || a.done || a.busyFor != 0 || a.active != 0 || a.synced != 0 {
		t.Errorf("ADC not fresh after PowerOn: %+v", a)
	}
	// The sample index rewound: the next conversion replays sample 0.
	a.StoreWord(ADCCTLAddr, ADCStart)
	a.Tick(ADCConversionCycles)
	if a.MEM != first {
		t.Errorf("ADC after PowerOn replays sample %d-style value 0x%03x, want 0x%03x", 1, a.MEM, first)
	}

	u := NewUART(irq, IRQUART)
	u.Feed([]byte("in"))
	u.StoreWord(UTXAddr, 'x')
	u.PowerOn()
	if u.TX != nil || u.rx != nil {
		t.Errorf("UART not fresh after PowerOn: %+v", u)
	}

	l := NewLCD()
	l.StoreWord(LCDCMDAddr, LCDCmdSetAddr|0x02)
	l.StoreWord(LCDDATAAddr, 'A')
	l.PowerOn()
	if l.Row(0) != "                " || l.addr != 0 {
		t.Errorf("LCD not fresh after PowerOn: %q addr=%d", l.Row(0), l.addr)
	}

	r := NewUltrasonic(irq, IRQUltrasonic)
	r.StoreWord(USTRIGAddr, 1)
	r.SyncTo(UltrasonicLatency + 1)
	if !r.done || r.pings != 1 {
		t.Fatal("setup: ranger never completed a ping")
	}
	r.PowerOn()
	if r.width != 0 || r.done || r.busyFor != 0 || r.pings != 0 || r.synced != 0 {
		t.Errorf("Ultrasonic not fresh after PowerOn: %+v", r)
	}
	if r.Distance == nil {
		t.Error("Ultrasonic PowerOn dropped the distance model")
	}
}

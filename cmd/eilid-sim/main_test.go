package main

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// quickstart firmware: the examples/quickstart program shape — compute,
// print over UART, halt.
const quickstartSrc = `
.equ SIMCTL, 0x00FC
.equ UTX,    0x0070

.org 0xE000
reset:
    mov #0x0A00, sp
main:
    mov #0x21, r12     ; '!'
    call #put_char
    mov #0, &SIMCTL
stop:
    jmp stop

put_char:
    mov.b r12, &UTX
    ret

.org 0xFFFE
.word reset
`

func TestRunBuiltinApp(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-app", "LightSensor"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"EILID-protected", "halted:   true", "resets:   0"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunAppMaxOverride: an explicit -max caps a built-in app's run
// the way -uart replaces its input, instead of the app's own budget.
func TestRunAppMaxOverride(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-app", "LightSensor", "-unprotected", "-max", "1000"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "halted:   false") {
		t.Errorf("the app halted inside a 1000-cycle budget:\n%s", out.String())
	}
	// The run stops at the first instruction boundary at or past the
	// budget; no MSP430 instruction takes more than 6 cycles.
	var cycles uint64
	if i := strings.Index(out.String(), "cycles:"); i < 0 {
		t.Fatalf("no cycle count:\n%s", out.String())
	} else if _, err := fmt.Sscanf(out.String()[i:], "cycles: %d", &cycles); err != nil || cycles < 1000 || cycles > 1006 {
		t.Errorf("ran %d cycles (%v), want the 1000-cycle budget", cycles, err)
	}
}

func TestRunQuickstartFile(t *testing.T) {
	path := t.TempDir() + "/quickstart.s"
	if err := writeFile(path, quickstartSrc); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	if code := run([]string{"-file", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), `uart-tx:  "!"`) {
		t.Errorf("quickstart transcript missing:\n%s", out.String())
	}
}

// r5Src writes r5, the register EILID reserves for its shadow-stack
// index: EILIDinst rejects it, the original build does not.
const r5Src = `
.org 0xE000
reset:
    mov #0x0A00, sp
    mov #5, r5
    mov #0, &0x00FC
stop:
    jmp stop
.org 0xFFFE
.word reset
`

// TestRunUnprotectedOriginalBuild: -unprotected runs the original
// build alone, so firmware that EILIDinst rejects still runs on the
// baseline device, while the protected run refuses it.
func TestRunUnprotectedOriginalBuild(t *testing.T) {
	path := t.TempDir() + "/r5.s"
	if err := writeFile(path, r5Src); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	if code := run([]string{"-file", path, "-unprotected"}, &out, &errb); code != 0 {
		t.Fatalf("-unprotected: exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"unprotected baseline", "halted:   true"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-unprotected output missing %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-file", path}, &out, &errb); code != 1 {
		t.Errorf("protected: exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "r5") {
		t.Errorf("protected: stderr does not name r5: %q", errb.String())
	}
}

func TestRunFlagErrors(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-app", "NoSuchApp"}, &out, &errb); code != 2 {
		t.Errorf("unknown app: exit %d, want 2", code)
	}
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("no input: exit %d, want 2", code)
	}
	if code := run([]string{"-nonsense"}, &out, &errb); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	// A stray argument would drop the -max after it.
	if code := run([]string{"-app", "LightSensor", "stray", "-max", "1000"}, &out, &errb); code != 2 {
		t.Errorf("stray argument: exit %d, want 2", code)
	}
}

func TestRunList(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "SyringePump") {
		t.Errorf("-list missing SyringePump:\n%s", out.String())
	}
}

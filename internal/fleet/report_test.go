package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// sameAsMarshal fails unless WriteNDJSONLine writes json.Marshal's
// bytes for jr followed by a newline.
func sameAsMarshal(t testing.TB, label string, jr JobResult) {
	t.Helper()
	want, err := json.Marshal(jr)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	var got bytes.Buffer
	if err := WriteNDJSONLine(&got, jr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("%s:\nwrote   %s\nMarshal %s", label, got.Bytes(), want)
	}
}

// resultField is one field of a JobResult as json.Marshal sees it:
// Job's fields are JobResult's own, as embedded.
type resultField struct {
	name      string
	omitempty bool
	v         reflect.Value // settable
}

// resultFields returns every field of *jr, in declaration order.
func resultFields(jr *JobResult) []resultField {
	var out []resultField
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if f.Anonymous {
				walk(v.Field(i))
				continue
			}
			out = append(out, resultField{f.Name, strings.HasSuffix(f.Tag.Get("json"), ",omitempty"), v.Field(i)})
		}
	}
	walk(reflect.ValueOf(jr).Elem())
	return out
}

// setNonZero gives a field a non-zero value that differs from field to
// field (k is the field's place), at the extremes of its type when wide
// is set.
func setNonZero(t *testing.T, f resultField, k int, wide bool) {
	t.Helper()
	switch v := f.v; v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("%s-%d", strings.ToLower(f.name), k))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		n := int64(k + 1)
		if wide {
			n = math.MinInt64 >> (64 - v.Type().Bits())
		}
		v.SetInt(n)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		n := uint64(k + 1)
		if wide {
			n = math.MaxUint64 >> (64 - v.Type().Bits())
		}
		v.SetUint(n)
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("JobResult.%s is a %v: give its kind a case here and the field one in appendJobResult", f.name, v.Kind())
	}
}

// allSet returns a JobResult with every field non-zero.
func allSet(t *testing.T, wide bool) JobResult {
	var jr JobResult
	for k, f := range resultFields(&jr) {
		setNonZero(t, f, k, wide)
	}
	return jr
}

// TestJournalLineMatchesMarshal: the job line WriteNDJSONLine appends by
// hand is json.Marshal's, byte for byte. Every field is set non-zero by
// reflection, so a field added to JobResult or Job without a case in
// appendJobResult fails here; each field is zeroed alone and set alone,
// so each omitempty rule is checked both ways; every string field holds
// each byte Marshal escapes or replaces; and every result of the default
// matrix and of Generate(1, 64) in the four columns is encoded both
// ways.
func TestJournalLineMatchesMarshal(t *testing.T) {
	sameAsMarshal(t, "zero", JobResult{})
	for _, wide := range []bool{false, true} {
		sameAsMarshal(t, fmt.Sprintf("every field set (extremes %v)", wide), allSet(t, wide))
	}
	for k, f := range resultFields(&JobResult{}) {
		zeroed := allSet(t, false)
		resultFields(&zeroed)[k].v.SetZero()
		sameAsMarshal(t, fmt.Sprintf("%s alone zero (omitempty %v)", f.name, f.omitempty), zeroed)
		var alone JobResult
		setNonZero(t, resultFields(&alone)[k], k, false)
		sameAsMarshal(t, fmt.Sprintf("%s alone set (omitempty %v)", f.name, f.omitempty), alone)
	}

	strs := []string{
		"plain", "<script>", "a&b", "x>y", `say "hi"`, `C:\dir`, "line\nbreak", "tab\there",
		"\x00\x01\x1f", "del\x7f", "\u2028\u2029", "caf\u00e9", "\U0001F600", "bad\xffutf8", "cut\xe2\x80", "\xc0\x80",
	}
	for k, f := range resultFields(&JobResult{}) {
		if f.v.Kind() != reflect.String {
			continue
		}
		for _, str := range strs {
			jr := allSet(t, false)
			resultFields(&jr)[k].v.SetString(str)
			sameAsMarshal(t, fmt.Sprintf("%s = %q", f.name, str), jr)
		}
	}

	p := newPipeline(t)
	for _, m := range []MatrixSpec{{}, {NoApps: true, NoScenarios: true, Generated: GeneratedSpec{Seed: 1, Count: 64}}} {
		r, err := NewRunner(p, BatchSpec{Matrix: m})
		if err != nil {
			t.Fatal(err)
		}
		results, _ := runAll(t, r)
		for _, jr := range results {
			sameAsMarshal(t, fmt.Sprintf("job %d (%s/%s)", jr.Index, jr.Name, jr.Defense), jr)
		}
	}
}

// FuzzJournalLine: for any values of JobResult's string, integer and
// boolean fields, WriteNDJSONLine writes json.Marshal's bytes.
func FuzzJournalLine(f *testing.F) {
	f.Add(1, "attack", "stack-smash", "eilid", 0, "", "", uint64(940), uint64(437), false, uint16(0), 1, "cfi-check-failed", 1, "", false, true, "", "")
	f.Add(9, "gen", "uart-fuzz-9", "shadow", 2, "uart-fuzz", "uart-victim", uint64(1<<40), uint64(12), true, uint16(102), 0, "", 0, "OK\r\n", true, false, "compromised <&>", "panic: \"x\"")
	f.Add(-1, "\u2028", "\xff", "\x00", -7, "a\\b", "\t", uint64(math.MaxUint64), uint64(0), true, uint16(math.MaxUint16), math.MinInt, "\U0001F600", math.MaxInt, "\xe2\x80", true, true, "\x7f", "é")
	f.Fuzz(func(t *testing.T, index int, kind, name, defense string, repeat int, family, victim string,
		cycles, insns uint64, halted bool, exitCode uint16, resets int, reason string, recorded int,
		uart string, compromised, checkOK bool, oracle, errText string) {
		sameAsMarshal(t, "fuzzed", JobResult{
			Job:    Job{Index: index, Kind: kind, Name: name, Defense: defense, Repeat: repeat, Family: family, Victim: victim},
			Cycles: cycles, Insns: insns, Halted: halted, ExitCode: exitCode, Resets: resets, Reason: reason,
			ReasonsRecorded: recorded, UART: uart, Compromised: compromised, CheckOK: checkOK, Oracle: oracle, Err: errText,
		})
	})
}

package fleet

// BatchSpec serialization suite. The golden test pins the journal
// header's canonical JSON bytes AND their sha256: every journal ever
// written embeds this fingerprint, so any change to JournalSpec's
// field set, tag names, tag options or field order silently orphans
// every existing journal (resume would refuse them). If this test
// fails you have changed the wire format — that needs a version bump,
// not a golden update.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"
)

func TestJournalSpecGoldenFingerprint(t *testing.T) {
	cases := []struct {
		name string
		spec JournalSpec
		json string
		sha  string
	}{
		{
			// Every field populated: pins the tag names and field order.
			name: "full",
			spec: JournalSpec{
				Apps:      []string{"LightSensor"},
				Scenarios: []string{"stack-smash"},
				Defenses:  []string{"baseline", "eilid"},
				Repeat:    2,
				GenSeed:   7,
				GenCount:  5,
			},
			json: `{"apps":["LightSensor"],"scenarios":["stack-smash"],"defenses":["baseline","eilid"],"repeat":2,"gen_seed":7,"gen_count":5}`,
			sha:  "cf357043a1592eab8847f46a17b2369f3b53772cef165aeb5fa97fdf71883a4e",
		},
		{
			// Generated-only matrix: pins the omitempty behaviour (apps,
			// scenarios and the zero seed drop out; defenses and repeat
			// never do).
			name: "generated-only",
			spec: JournalSpec{Defenses: []string{"baseline"}, Repeat: 1, GenCount: 12},
			json: `{"defenses":["baseline"],"repeat":1,"gen_count":12}`,
			sha:  "9c1a19bf509eef18c40e1cb4c9df8af55013f552320c991849de77d15e4e9764",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := json.Marshal(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != tc.json {
				t.Errorf("canonical JSON changed — this orphans every existing journal:\nwant: %s\ngot:  %s", tc.json, b)
			}
			if fp := tc.spec.Fingerprint(); fp != tc.sha {
				t.Errorf("fingerprint changed:\nwant: %s\ngot:  %s", tc.sha, fp)
			}
			// The fingerprint is definitionally the sha256 of the canonical
			// bytes; pin that relation too so the hash can't drift.
			sum := sha256.Sum256([]byte(tc.json))
			if hex.EncodeToString(sum[:]) != tc.sha {
				t.Fatalf("golden sha %s is not the sha256 of the golden bytes", tc.sha)
			}
		})
	}

	// The BatchSpec path — resolve, project, fingerprint — must land on
	// the same golden hash as the hand-built JournalSpec.
	batch := BatchSpec{Matrix: MatrixSpec{
		Apps:      []string{"LightSensor"},
		Scenarios: []string{"stack-smash"},
		Defenses:  []string{"baseline", "eilid"},
		Repeat:    2,
		Generated: GeneratedSpec{Seed: 7, Count: 5},
	}}
	fp, err := batch.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp != cases[0].sha {
		t.Errorf("BatchSpec.Fingerprint() = %s, want the golden %s", fp, cases[0].sha)
	}
}

// TestResolveSpecIdempotent: resolving a resolved spec is a no-op —
// the property that lets a dumped spec be re-loaded and re-resolved to
// the identical matrix and fingerprint.
func TestResolveSpecIdempotent(t *testing.T) {
	specs := []BatchSpec{
		{}, // default everything
		{Matrix: MatrixSpec{Apps: []string{"LightSensor"}, NoScenarios: true}},
		{Matrix: MatrixSpec{NoApps: true, NoScenarios: true, Generated: GeneratedSpec{Seed: 3, Count: 9}}},
		{Matrix: MatrixSpec{Repeat: 4}, Exec: ExecSpec{Workers: 7, JobTimeout: Duration(time.Minute)}},
	}
	for i, spec := range specs {
		once, err := ResolveSpec(spec)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		twice, err := ResolveSpec(once)
		if err != nil {
			t.Fatalf("spec %d re-resolve: %v", i, err)
		}
		if !reflect.DeepEqual(once, twice) {
			t.Errorf("spec %d not idempotent:\nonce:  %+v\ntwice: %+v", i, once, twice)
		}
	}

	full, err := ResolveSpec(BatchSpec{})
	if err != nil {
		t.Fatal(err)
	}
	m := full.Matrix
	if len(m.Apps) == 0 || len(m.Scenarios) == 0 || len(m.Defenses) == 0 {
		t.Fatalf("default spec resolved to empty lists: %+v", m)
	}
	if m.NoApps || m.NoScenarios || m.Repeat != 1 {
		t.Fatalf("default spec canonicalization: %+v", m)
	}
	// An unused generated seed is zeroed so the fingerprint cannot
	// depend on a value that selects no jobs.
	seeded, err := ResolveSpec(BatchSpec{Matrix: MatrixSpec{Generated: GeneratedSpec{Seed: 99}}})
	if err != nil {
		t.Fatal(err)
	}
	if seeded.Matrix.Generated.Seed != 0 {
		t.Errorf("zero-count generated seed survived resolution: %+v", seeded.Matrix.Generated)
	}
	// Exec passes through unresolved: 0-sentinels stay 0 so a spec
	// serialized on one machine does not pin its GOMAXPROCS elsewhere.
	if full.Exec != (ExecSpec{}) {
		t.Errorf("ResolveSpec touched the exec section: %+v", full.Exec)
	}
}

// TestBatchSpecJSONRoundTrip: a resolved spec survives JSON unchanged —
// struct-equal and fingerprint-equal — which is the worker handshake's
// entire correctness argument.
func TestBatchSpecJSONRoundTrip(t *testing.T) {
	spec, err := ResolveSpec(BatchSpec{
		Matrix: MatrixSpec{Repeat: 2, Generated: GeneratedSpec{Seed: 5, Count: 3}},
		Exec:   ExecSpec{Workers: 4, NoRecycle: true, JobTimeout: Duration(90 * time.Second), MaxRetries: -1},
		Fault:  FaultSpec{PanicAt: []int{1}, HangAt: []int{2}, HangFor: Duration(time.Second)},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back BatchSpec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Fatalf("round-trip changed the spec:\nbefore: %+v\nafter:  %+v", spec, back)
	}
	fpA, errA := spec.Fingerprint()
	fpB, errB := back.Fingerprint()
	if errA != nil || errB != nil || fpA != fpB {
		t.Fatalf("round-trip changed the fingerprint: %s / %s (%v, %v)", fpA, fpB, errA, errB)
	}
}

// TestJournalSpecBatchRoundTrip: header → BatchSpec → header is the
// resume path's matrix reconstruction; it must be lossless.
func TestJournalSpecBatchRoundTrip(t *testing.T) {
	for _, js := range []JournalSpec{
		{Apps: []string{"LightSensor"}, Scenarios: []string{"stack-smash"}, Defenses: []string{"baseline"}, Repeat: 1},
		{Defenses: []string{"baseline", "eilid"}, Repeat: 3, GenSeed: 1, GenCount: 8},
	} {
		got := js.Batch().Matrix.journalSpec()
		if !reflect.DeepEqual(js, got) {
			t.Errorf("Batch() lost information:\nheader: %+v\nback:   %+v", js, got)
		}
	}
}

func TestDurationJSON(t *testing.T) {
	b, err := json.Marshal(Duration(90 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"1m30s"` {
		t.Errorf("marshalled to %s, want \"1m30s\"", b)
	}
	var d Duration
	if err := json.Unmarshal([]byte(`"2m30s"`), &d); err != nil || d.Std() != 150*time.Second {
		t.Errorf("string form: %v, %v", d, err)
	}
	// Integer nanoseconds also decode — the form a plain time.Duration
	// field would have produced.
	if err := json.Unmarshal([]byte(`1500000000`), &d); err != nil || d.Std() != 1500*time.Millisecond {
		t.Errorf("integer form: %v, %v", d, err)
	}
	if err := json.Unmarshal([]byte(`"not a duration"`), &d); err == nil {
		t.Error("garbage duration accepted")
	}
}

// TestResolveSpecErrors: unknown names, a negative generated count and
// an out-of-range pool size are resolution errors, so they surface
// identically from the CLI, the runner, -dump-spec and eilid-fleetd.
func TestResolveSpecErrors(t *testing.T) {
	for name, spec := range map[string]BatchSpec{
		"unknown app":      {Matrix: MatrixSpec{Apps: []string{"NoSuchApp"}}},
		"unknown scenario": {Matrix: MatrixSpec{Scenarios: []string{"no-such-attack"}}},
		"unknown defense":  {Matrix: MatrixSpec{Defenses: []string{"no-such-defense"}}},
		"negative gen":     {Matrix: MatrixSpec{Generated: GeneratedSpec{Count: -1}}},
		"negative workers": {Exec: ExecSpec{Workers: -1}},
		"huge workers":     {Exec: ExecSpec{Workers: 1 << 60}},
	} {
		if _, err := ResolveSpec(spec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestMatrixJobCount: the count is exact up to the limit and refused
// past it, including products that would overflow an int.
func TestMatrixJobCount(t *testing.T) {
	four := []string{"baseline", "eilid", "shadow", "critvar"}
	cases := []struct {
		m     MatrixSpec
		limit int
		want  int
		ok    bool
	}{
		{MatrixSpec{Apps: []string{"a"}, Scenarios: []string{"s"}, Defenses: four, Repeat: 2, Generated: GeneratedSpec{Count: 3}}, 40, 40, true},
		{MatrixSpec{Apps: []string{"a"}, Scenarios: []string{"s"}, Defenses: four, Repeat: 2, Generated: GeneratedSpec{Count: 3}}, 39, 0, false},
		{MatrixSpec{Defenses: four, Repeat: 1, Generated: GeneratedSpec{Count: 16384}}, 65536, 65536, true},
		{MatrixSpec{Defenses: four, Repeat: 1, Generated: GeneratedSpec{Count: 16385}}, 65536, 0, false},
		{MatrixSpec{Defenses: four, Repeat: 1, Generated: GeneratedSpec{Count: 1 << 62}}, math.MaxInt, 0, false},
		{MatrixSpec{Apps: []string{"a"}, Defenses: four, Repeat: 1 << 62}, math.MaxInt, 0, false},
		{MatrixSpec{Defenses: four, Repeat: 1, Generated: GeneratedSpec{Count: math.MaxInt}}, math.MaxInt, 0, false},
	}
	for i, tc := range cases {
		if n, ok := tc.m.JobCount(tc.limit); n != tc.want || ok != tc.ok {
			t.Errorf("case %d: JobCount(%d) = %d, %v; want %d, %v", i, tc.limit, n, ok, tc.want, tc.ok)
		}
	}
}

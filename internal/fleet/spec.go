package fleet

// BatchSpec is the canonical, serializable description of one fleet
// batch — the single source of truth every other shape is derived
// from. The CLI flags parse into a BatchSpec (and a spec file loads
// one via `-spec`), eilid-fleetd accepts the same JSON over HTTP, and
// the journal header fingerprint is computed from its resolved matrix,
// so a knob added here is automatically a knob everywhere.
//
// The two sections split along the determinism contract:
//
//   - Matrix selects the jobs and is the only part the journal
//     fingerprint covers — it alone determines job identity.
//   - Exec holds execution knobs (pool size, watchdog) that must never
//     change results, only how fast or how safely they are computed.
//
// DecodeSpec is the one strict decoder for the serialized form, shared
// by `-spec`, POST /batches and the spec fuzzer.
//
// ResolveSpec canonicalizes the matrix against the registries; a
// resolved spec is idempotent under re-resolution, which is what lets
// a spec be dumped, stored, re-loaded and re-resolved to the identical
// fingerprint.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"eilid/internal/apps"
	"eilid/internal/attacks"
	"eilid/internal/core"
)

// BatchSpec selects the job matrix and the execution knobs for one
// fleet batch.
type BatchSpec struct {
	Matrix MatrixSpec `json:"matrix"`
	Exec   ExecSpec   `json:"exec"`
}

// DecodeSpec reads one serialized BatchSpec from r. It is strict: an
// unknown field (a typo'd knob, or a retired one such as `fault` or
// `exec.max_retries`) is an error, and so is anything but whitespace
// after the spec, so a file or body holding two documents cannot run
// the first and drop the rest.
func DecodeSpec(r io.Reader) (BatchSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec BatchSpec
	if err := dec.Decode(&spec); err != nil {
		return BatchSpec{}, err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		if err == nil {
			err = errors.New("a second JSON value")
		}
		return BatchSpec{}, fmt.Errorf("fleet: trailing data after the spec: %w", err)
	}
	return spec, nil
}

// MatrixSpec selects the job matrix — everything that determines job
// identity, and nothing else. This is the only section the journal
// fingerprint covers.
type MatrixSpec struct {
	// Apps restricts the Table IV applications by name (nil = all).
	Apps []string `json:"apps,omitempty"`
	// Scenarios restricts the attack scenarios by name (nil = all).
	// Use NoScenarios to run an app-only matrix.
	Scenarios []string `json:"scenarios,omitempty"`
	// NoApps / NoScenarios drop a whole dimension.
	NoApps      bool `json:"no_apps,omitempty"`
	NoScenarios bool `json:"no_scenarios,omitempty"`
	// Defenses restricts the defense columns by registry name (nil =
	// every registered defense, in core.Defenses order).
	Defenses []string `json:"defenses,omitempty"`
	// Repeat runs every job this many times (default 1); repeats are
	// distinct jobs, so determinism is checked across them too.
	Repeat int `json:"repeat,omitempty"`
	// Generated sizes the generated scenario dimension (zero Count
	// disables it).
	Generated GeneratedSpec `json:"generated"`
}

// GeneratedSpec adds a third matrix dimension of seed-derived attack
// variants (internal/scenario): Count scenarios generated from Seed,
// each run on every selected defense. Generation is deterministic, so
// the dimension inherits the fleet's byte-identical-results contract.
type GeneratedSpec struct {
	Seed  uint64 `json:"seed,omitempty"`
	Count int    `json:"count,omitempty"`
}

// MaxWorkers bounds ExecSpec.Workers. Runner.Run starts a goroutine
// per worker, so an unbounded pool size from a spec file or an HTTP
// body could exhaust memory before a single job completes.
const MaxWorkers = 256

// ExecSpec holds the execution knobs. None of them may change job
// results — only how fast, how concurrently or how safely the batch
// computes them — so none of them enter the journal fingerprint, and
// sentinel values (0 = default) pass through serialization unresolved:
// a spec written on one machine must not pin another machine's
// GOMAXPROCS.
type ExecSpec struct {
	// Workers sizes the pool (0 = GOMAXPROCS at run time; 1 =
	// sequential; at most MaxWorkers).
	Workers int `json:"workers,omitempty"`
	// JobTimeout arms the per-job wall-clock watchdog: a job still
	// running after this long is abandoned and recorded as a
	// deterministic watchdog failure instead of hanging the batch.
	// Zero disables the watchdog; a negative value is refused.
	JobTimeout Duration `json:"job_timeout,omitempty"`
}

// Duration is a time.Duration that serializes as its human-readable
// string form ("2m30s") so spec files stay hand-editable, and accepts
// either that form or integer nanoseconds on the way in.
type Duration time.Duration

// Std returns the plain time.Duration value.
func (d Duration) Std() time.Duration { return time.Duration(d) }

func (d Duration) String() string { return time.Duration(d).String() }

func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("fleet: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*d = Duration(n)
	return nil
}

// ResolveSpec canonicalizes the matrix half of a spec against the
// registries: nil "all" selections become explicit name lists (so a
// registry drift between two processes shows up as a fingerprint
// mismatch instead of silently different matrices), names are
// validated (an unknown name, or one listed twice, is an error), Repeat
// defaults to 1, and an unused generated seed is zeroed. Exec passes
// through untouched (Exec.Workers is only range-checked, and a
// negative Exec.JobTimeout is refused) — its sentinel semantics (0 =
// default) are resolved at run time, never baked into a serialized
// spec. The flags, -spec, -dump-spec and POST /batches all validate
// through here.
//
// Resolution is idempotent and needs no build artifacts, so `-dump-
// spec` can emit the canonical spec without assembling any firmware.
func ResolveSpec(spec BatchSpec) (BatchSpec, error) {
	if w := spec.Exec.Workers; w < 0 || w > MaxWorkers {
		return spec, fmt.Errorf("fleet: exec workers must be in [0, %d] (got %d)", MaxWorkers, w)
	}
	if d := spec.Exec.JobTimeout; d < 0 {
		return spec, fmt.Errorf("fleet: exec job_timeout must be >= 0 (got %v)", d)
	}
	m := &spec.Matrix
	switch {
	case m.NoApps:
		m.Apps = nil
	case m.Apps == nil:
		for _, a := range apps.All() {
			m.Apps = append(m.Apps, a.Name)
		}
	default:
		for _, n := range m.Apps {
			if _, ok := apps.ByName(n); !ok {
				return spec, fmt.Errorf("fleet: unknown application %q", n)
			}
		}
	}
	switch {
	case m.NoScenarios:
		m.Scenarios = nil
	case m.Scenarios == nil:
		for _, sc := range attacks.Scenarios() {
			m.Scenarios = append(m.Scenarios, sc.Name)
		}
	default:
		known := map[string]bool{}
		for _, sc := range attacks.Scenarios() {
			known[sc.Name] = true
		}
		for _, n := range m.Scenarios {
			if !known[n] {
				return spec, fmt.Errorf("fleet: unknown scenario %q", n)
			}
		}
	}
	if len(m.Defenses) == 0 {
		m.Defenses = nil
		for _, d := range core.Defenses() {
			m.Defenses = append(m.Defenses, d.Name)
		}
	} else {
		for _, n := range m.Defenses {
			if _, err := core.DefenseByName(n); err != nil {
				return spec, fmt.Errorf("fleet: %w", err)
			}
		}
	}
	for _, dim := range []struct {
		what  string
		names []string
	}{{"application", m.Apps}, {"scenario", m.Scenarios}, {"defense", m.Defenses}} {
		seen := make(map[string]bool, len(dim.names))
		for _, n := range dim.names {
			if seen[n] {
				// It would run every job of its row or column twice and
				// count them twice in the detection matrix; Repeat is
				// the knob for running jobs again.
				return spec, fmt.Errorf("fleet: %s %q listed twice", dim.what, n)
			}
			seen[n] = true
		}
	}
	if m.Repeat < 1 {
		m.Repeat = 1
	}
	if m.Generated.Count < 0 {
		return spec, fmt.Errorf("fleet: generated count must be >= 0 (got %d)", m.Generated.Count)
	}
	if m.Generated.Count == 0 {
		// A zero-count dimension ignores its seed; canonicalize so the
		// fingerprint does not depend on an unused value.
		m.Generated.Seed = 0
	}
	// Canonicalize the dimension-drop booleans against the resolved
	// lists so resolve(resolve(x)) == resolve(x).
	if len(m.Apps) == 0 {
		m.Apps, m.NoApps = nil, true
	} else {
		m.NoApps = false
	}
	if len(m.Scenarios) == 0 {
		m.Scenarios, m.NoScenarios = nil, true
	} else {
		m.NoScenarios = false
	}
	return spec, nil
}

// JobCount returns how many jobs the resolved matrix enumerates —
// Repeat × defenses × (apps + scenarios + generated) — or ok=false
// when that exceeds limit. It multiplies factor by factor against the
// limit, so no Repeat or Generated.Count can overflow the count.
func (m MatrixSpec) JobCount(limit int) (n int, ok bool) {
	n = len(m.Apps) + len(m.Scenarios)
	if m.Generated.Count > limit-n {
		return 0, false
	}
	n += m.Generated.Count
	for _, f := range []int{len(m.Defenses), m.Repeat} {
		if f > 0 && n > limit/f {
			return 0, false
		}
		n *= f
	}
	return n, true
}

// Fingerprint resolves the spec and returns the sha256 journal
// fingerprint its matrix would carry — the identity every journal
// header and resume agrees on.
func (s BatchSpec) Fingerprint() (string, error) {
	rs, err := ResolveSpec(s)
	if err != nil {
		return "", err
	}
	return rs.Matrix.journalSpec().Fingerprint(), nil
}

package fleet

// Deterministic fault injection for the crash-safety differential
// suites: a FaultSpec makes selected jobs panic, fail transiently or
// hang on their first attempt, so the tests (and CI) can prove that a
// faulted batch — after in-run retry or -resume — converges to NDJSON
// byte-identical to an unfaulted run. Faults fire at the runner's fault
// boundary, before the job touches any machine, so an injected fault
// never dirties pooled simulator state.

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// TransientErrPrefix marks a JobResult.Err as transient: the runner's
// fault boundary retries the job (up to ExecSpec.MaxRetries extra attempts)
// instead of recording the failure. Job implementations can opt into
// retry the same way — prefix the error string — for failure modes that
// are genuinely attempt-scoped; everything the simulator itself reports
// today is deterministic, so the only current source is injection.
const TransientErrPrefix = "transient: "

// IsTransientErr reports whether a JobResult.Err string asks for a
// retry.
func IsTransientErr(s string) bool { return strings.HasPrefix(s, TransientErrPrefix) }

// FaultSpec selects deterministic faults by job index. The zero value
// injects nothing. All faults are first-attempt-only (or first
// FailCount attempts, for transients): a retried or resumed job runs
// clean, which is exactly the convergence property the differential
// suites pin. As the Fault section of a BatchSpec it serializes with
// the spec, but it is never carried across a resume, and eilid-fleetd
// refuses a spec that enables it.
type FaultSpec struct {
	// PanicAt lists job indices whose first attempt panics. Panics are
	// not retried in-run: the job is recorded as a deterministic failure
	// and a later -resume re-runs it clean.
	PanicAt []int `json:"panic_at,omitempty"`
	// TransientAt lists job indices whose first FailCount attempts fail
	// with a transient error; the fault boundary's bounded retry then
	// lets the job succeed in-run (or exhaust its attempts when
	// FailCount > MaxRetries).
	TransientAt []int `json:"transient_at,omitempty"`
	// FailCount is how many attempts of a TransientAt job fail
	// (default 1).
	FailCount int `json:"fail_count,omitempty"`
	// HangAt lists job indices whose first attempt blocks for HangFor —
	// watchdog fodder. NewRunner rejects HangAt without a positive
	// ExecSpec.JobTimeout, because a hang with no watchdog stalls a
	// worker for the full HangFor.
	HangAt []int `json:"hang_at,omitempty"`
	// HangFor is how long a HangAt job blocks (default 30s; tests use
	// short hangs so abandoned attempt goroutines exit promptly).
	HangFor Duration `json:"hang_for,omitempty"`
}

// Enabled reports whether the spec injects anything.
func (f *FaultSpec) Enabled() bool {
	return len(f.PanicAt) > 0 || len(f.TransientAt) > 0 || len(f.HangAt) > 0
}

// FaultFromSeed derives a FaultSpec from a seed: panics distinct panic
// indices and transients distinct transient indices drawn from [0, jobs)
// via the same splitmix64 scramble the scenario generator uses, so a
// (seed, jobs) pair names the same faulted indices on every platform.
func FaultFromSeed(seed uint64, jobs, panics, transients int) FaultSpec {
	var f FaultSpec
	if jobs <= 0 {
		return f
	}
	taken := map[int]bool{}
	draw := func(stream uint64, n int) []int {
		var out []int
		s := mix64(seed ^ mix64(stream))
		for len(out) < n && len(taken) < jobs {
			s += 0x9E3779B97F4A7C15
			i := int(mix64(s) % uint64(jobs))
			if !taken[i] {
				taken[i] = true
				out = append(out, i)
			}
		}
		sort.Ints(out)
		return out
	}
	f.PanicAt = draw(1, panics)
	f.TransientAt = draw(2, transients)
	return f
}

// mix64 is the splitmix64 finalizer (same scramble as
// internal/scenario's generator stream, restated here so the pool/fleet
// layer stays import-free of the scenario package).
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// faultState is the runner's compiled fault plan: index-set membership
// plus defaults resolved.
type faultState struct {
	panicAt     map[int]bool
	transientAt map[int]bool
	hangAt      map[int]bool
	failCount   int
	hangFor     time.Duration
}

func compileFaults(f FaultSpec, jobs int, jobTimeout time.Duration) (*faultState, error) {
	if !f.Enabled() {
		return nil, nil
	}
	st := &faultState{
		panicAt:     map[int]bool{},
		transientAt: map[int]bool{},
		hangAt:      map[int]bool{},
		failCount:   f.FailCount,
		hangFor:     f.HangFor.Std(),
	}
	if st.failCount <= 0 {
		st.failCount = 1
	}
	if st.hangFor <= 0 {
		st.hangFor = 30 * time.Second
	}
	fill := func(dst map[int]bool, src []int, kind string) error {
		for _, i := range src {
			if i < 0 || i >= jobs {
				return fmt.Errorf("fleet: fault %s index %d out of range [0, %d)", kind, i, jobs)
			}
			dst[i] = true
		}
		return nil
	}
	if err := fill(st.panicAt, f.PanicAt, "panic"); err != nil {
		return nil, err
	}
	if err := fill(st.transientAt, f.TransientAt, "transient"); err != nil {
		return nil, err
	}
	if err := fill(st.hangAt, f.HangAt, "hang"); err != nil {
		return nil, err
	}
	if len(st.hangAt) > 0 && jobTimeout <= 0 {
		return nil, fmt.Errorf("fleet: fault hang injection requires a positive ExecSpec.JobTimeout watchdog")
	}
	return st, nil
}

// fire applies the faults planned for one job attempt. It may panic
// (contained by the fault boundary's recover), block (caught by the
// watchdog), or return a non-empty transient failure message.
func (st *faultState) fire(job, attempt int) string {
	if st == nil {
		return ""
	}
	if attempt == 0 && st.panicAt[job] {
		panic(fmt.Sprintf("fault: injected panic at job %d", job))
	}
	if attempt == 0 && st.hangAt[job] {
		time.Sleep(st.hangFor)
	}
	if attempt < st.failCount && st.transientAt[job] {
		return fmt.Sprintf("%sinjected fault at job %d (attempt %d)", TransientErrPrefix, job, attempt+1)
	}
	return ""
}

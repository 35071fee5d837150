package fleet

// Warm is the runner's machine pool and artifact cache. NewRunner gives
// every runner a private one; eilid-fleetd hands one server-lifetime
// Warm to every batch (NewRunnerWarm), so build artifacts and recycled
// machines outlive any single batch. A cold batch pays the full
// preparation cost — assembling and instrumenting every firmware,
// predecoding decode caches and fusing their blocks, constructing
// machines — while a warm resubmission of the same (or an overlapping)
// matrix finds all of that already built and runs straight on recycled
// machines.
//
// Artifacts are content-addressed: they key on the sha256 of their
// assembly source (never on the matrix-cell name, which for generated
// victims could collide across seeds if a family ever renamed its
// parameters). Machines sit in one pool per (artifact, defense): every
// job checks a machine out of its pool, runs on it and checks it back
// in, so a pool holds as many machines as its jobs ever ran at once. A
// machine is only ever handed to a job whose artifact and defense match
// the ones it was built for, and every checkout recycles it back to its
// sealed post-load snapshot (Machine.Recycle), so reuse — within a
// batch or across batches — is observationally identical to a cold
// construction. The recycle and cross-batch differential suites pin
// that byte-identity.
//
// A Warm is safe for concurrent use. A checked-out machine belongs to
// its job alone: a job the per-job watchdog abandons keeps its machine
// until it returns, and a job that panics drops it, so the pool never
// holds a machine another goroutine may still be mutating.

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"eilid/internal/core"
)

// Warm caches build artifacts and idle recycled machines. The zero
// value is not usable; call NewWarm.
type Warm struct {
	mu        sync.Mutex
	artifacts map[string]*artifact      // content key → shared artifact
	machines  map[poolKey][]idleMachine // idle machines per pool
	runners   uint64                    // generations handed to runners
	stats     WarmStats
}

// poolKey names one machine pool: one built firmware under one defense.
// A defense monitor is stateful hardware, so columns never share.
type poolKey struct {
	a    *artifact
	spec *core.DefenseSpec
}

// idleMachine is a checked-in machine tagged with the generation of the
// runner that checked it in.
type idleMachine struct {
	m   *core.Machine
	gen uint64
}

// WarmStats counts cache traffic — the observable the warm-reuse tests
// and the /healthz endpoint report.
type WarmStats struct {
	// Artifacts and Machines are the current cache sizes; Machines
	// counts idle (checked-in) machines.
	Artifacts int `json:"artifacts"`
	Machines  int `json:"machines"`
	// Hits and misses accumulate over the cache's lifetime. An artifact
	// miss is a firmware actually built. A cached artifact counts as a
	// hit even when the runner has to add the decode cache of a build
	// flavour no earlier runner ran (a baseline-only batch builds only
	// the original build's): the firmware was not built again.
	// MachineHits counts checkouts of a machine another runner checked
	// in, so it measures cross-batch recycling only.
	ArtifactHits   int `json:"artifact_hits"`
	ArtifactMisses int `json:"artifact_misses"`
	MachineHits    int `json:"machine_hits"`
}

// NewWarm creates an empty warm cache.
func NewWarm() *Warm {
	return &Warm{
		artifacts: map[string]*artifact{},
		machines:  map[poolKey][]idleMachine{},
	}
}

// warmContentKey addresses an artifact by what it is built from, not
// what the matrix calls it.
func warmContentKey(file, source string) string {
	h := sha256.New()
	h.Write([]byte(file))
	h.Write([]byte{0})
	h.Write([]byte(source))
	return hex.EncodeToString(h.Sum(nil))
}

// generation hands a new runner its generation tag.
func (w *Warm) generation() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.runners++
	return w.runners
}

// artifact returns the cached artifact under this content key, or nil
// on a miss. The returned artifact is shared and read-only.
func (w *Warm) artifact(key string) *artifact {
	w.mu.Lock()
	defer w.mu.Unlock()
	a := w.artifacts[key]
	if a != nil {
		w.stats.ArtifactHits++
	} else {
		w.stats.ArtifactMisses++
	}
	return a
}

// putArtifact caches a freshly built artifact under its content key and
// returns the one cached there: a, or the artifact a concurrent runner
// cached first, so that runners sharing the Warm share its flavours.
func (w *Warm) putArtifact(key string, a *artifact) *artifact {
	w.mu.Lock()
	defer w.mu.Unlock()
	if cached, ok := w.artifacts[key]; ok {
		return cached
	}
	w.artifacts[key] = a
	w.stats.Artifacts = len(w.artifacts)
	return a
}

// checkout takes an idle machine out of the pool, or returns nil when
// the pool is empty. The caller owns the machine until it checks it
// back in and must Recycle it before use.
func (w *Warm) checkout(k poolKey, gen uint64) *core.Machine {
	w.mu.Lock()
	defer w.mu.Unlock()
	pool := w.machines[k]
	if len(pool) == 0 {
		return nil
	}
	idle := pool[len(pool)-1]
	pool[len(pool)-1] = idleMachine{}
	w.machines[k] = pool[:len(pool)-1]
	w.stats.Machines--
	if idle.gen != gen {
		w.stats.MachineHits++
	}
	return idle.m
}

// checkin returns an idle machine to its pool.
func (w *Warm) checkin(k poolKey, gen uint64, m *core.Machine) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.machines[k] = append(w.machines[k], idleMachine{m: m, gen: gen})
	w.stats.Machines++
}

// Stats snapshots the cache counters.
func (w *Warm) Stats() WarmStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

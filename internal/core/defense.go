package core

import (
	"fmt"
	"sort"
	"strings"

	"eilid/internal/casu"
)

// DefenseEnv is what a defense constructor gets to see of the machine
// being assembled: the memory plan, the secure ROM build (nil unless the
// defense requires instrumentation) and a side-effect-free memory tap.
type DefenseEnv struct {
	Config Config
	ROM    *SecureROM
	// Peek reads a word of memory without bus side effects — the
	// simulated counterpart of a hardware monitor's private tap on the
	// memory backbone.
	Peek func(addr uint16) uint16
}

// DefenseSpec describes one defense variant: how to build its monitor
// and what the machine must provide for it. Specs are the registry
// entries the fleet's defense × attack matrix iterates over; compare
// with the paper's Table of related work — EILID, shadow stacks and
// data-integrity attestation occupy different points of the same space,
// and a spec is exactly one such point made runnable.
type DefenseSpec struct {
	// Name is the registry key ("baseline", "eilid", "shadow",
	// "critvar"); it is what job records, oracles and the CLI's
	// -defenses flag key off.
	Name string
	// Summary is a one-line description for CLI/README listings.
	Summary string
	// Instrumented selects the EILIDinst three-iteration build and
	// loads the secure ROM; defenses that watch the raw buses run the
	// original firmware unchanged (that is their comparative value).
	Instrumented bool
	// GateIRQ installs the hardware interrupt gate that blanks requests
	// while the PC is inside the secure ROM.
	GateIRQ bool
	// Kinds lists every ViolationKind this defense can emit; oracles
	// use it to decide whether a reset reason is plausible for the
	// defense that produced it.
	Kinds []casu.ViolationKind
	// New constructs the armed monitor; nil means no monitor at all
	// (the unprotected baseline).
	New func(env DefenseEnv) casu.Defense
}

// EmitsReason reports whether reason names (by ViolationKind.String) a
// kind in the spec's emittable set — the check oracles apply to a reset
// reason recorded for this defense.
func (s *DefenseSpec) EmitsReason(reason string) bool {
	for _, k := range s.Kinds {
		if k.String() == reason {
			return true
		}
	}
	return false
}

// DefenseBaseline is the unprotected device of the paper's attack
// comparisons: same hardware, monitor absent, original build.
var DefenseBaseline = &DefenseSpec{
	Name:    "baseline",
	Summary: "unprotected device, no monitor (diagnostic control)",
}

// DefenseEILID is the paper's defense: the CASU hardware invariants
// plus the EILIDsw shadow stack in secure ROM, running the
// EILIDinst-instrumented build behind the IRQ gate.
var DefenseEILID = &DefenseSpec{
	Name:         "eilid",
	Summary:      "CASU invariants + EILIDsw shadow stack (instrumented build)",
	Instrumented: true,
	GateIRQ:      true,
	Kinds: []casu.ViolationKind{
		casu.ViolationPMEMWrite,
		casu.ViolationSecureROMWrite,
		casu.ViolationIVTWrite,
		casu.ViolationExecNonExec,
		casu.ViolationSecureEntry,
		casu.ViolationSecureExit,
		casu.ViolationSecureData,
		casu.ViolationLatchWrite,
		casu.ViolationCFIFail,
		casu.ViolationIRQInSecure,
	},
	New: func(env DefenseEnv) casu.Defense {
		return casu.NewMonitor(casu.Config{
			Layout:        env.Config.Layout,
			EntryPoint:    env.ROM.Entry,
			ExitPoint:     env.ROM.Exit,
			ViolationAddr: env.Config.ViolationAddr,
		})
	},
}

// DefenseShadow is the CFI CaRE-style hardware shadow stack: original
// build, no ROM, backward-edge enforcement only.
var DefenseShadow = &DefenseSpec{
	Name:    "shadow",
	Summary: "interrupt-aware hardware shadow stack (original build)",
	Kinds: []casu.ViolationKind{
		casu.ViolationShadowRA,
		casu.ViolationShadowRFI,
	},
	New: func(env DefenseEnv) casu.Defense {
		return casu.NewShadowStack(casu.ShadowConfig{Peek: env.Peek})
	},
}

// DefenseCritVar is the OAT-style critical-variable monitor: original
// build, comparator watchpoints on the configured decision variables.
var DefenseCritVar = &DefenseSpec{
	Name:    "critvar",
	Summary: "critical-variable watchpoints, OAT-style (original build)",
	Kinds: []casu.ViolationKind{
		casu.ViolationCritVar,
	},
	New: func(env DefenseEnv) casu.Defense {
		return casu.NewCritVar(casu.CritVarConfig{
			Watch: env.Config.CritVars,
			Peek:  env.Peek,
		})
	},
}

// defenseRegistry is the fixed column order of the matrix: the control
// first, then the paper's defense, then the comparative peers.
var defenseRegistry = []*DefenseSpec{
	DefenseBaseline,
	DefenseEILID,
	DefenseShadow,
	DefenseCritVar,
}

// Defenses returns every registered defense in matrix column order.
func Defenses() []*DefenseSpec {
	out := make([]*DefenseSpec, len(defenseRegistry))
	copy(out, defenseRegistry)
	return out
}

// DefenseNames returns the registered names in matrix column order.
func DefenseNames() []string {
	out := make([]string, len(defenseRegistry))
	for i, s := range defenseRegistry {
		out[i] = s.Name
	}
	return out
}

// DefenseByName resolves a registry name.
func DefenseByName(name string) (*DefenseSpec, error) {
	for _, s := range defenseRegistry {
		if s.Name == name {
			return s, nil
		}
	}
	known := DefenseNames()
	sort.Strings(known)
	return nil, fmt.Errorf("core: unknown defense %q (have %s)", name, strings.Join(known, ", "))
}

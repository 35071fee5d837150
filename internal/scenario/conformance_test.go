package scenario

import (
	"strings"
	"testing"

	"eilid/internal/casu"
	"eilid/internal/core"
)

// TestViolationKindConformance pins the violation-kind enumeration to
// the rest of the system: every kind must render a real name (a new
// kind without a String case would stream as "violation(N)" in NDJSON
// and fail every reason oracle), names must be unique (reason matching
// is by string), every kind must be emittable by at least one
// registered defense, and every kind must be acceptable to at least
// one generated-scenario oracle.
func TestViolationKindConformance(t *testing.T) {
	kinds := casu.ViolationKinds()
	if len(kinds) < 13 {
		t.Fatalf("only %d violation kinds enumerated", len(kinds))
	}

	seen := map[string]casu.ViolationKind{}
	for _, k := range kinds {
		name := k.String()
		if name == "" || name == "none" || strings.HasPrefix(name, "violation(") {
			t.Errorf("kind %d has no real name: %q", uint8(k), name)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", uint8(prev), uint8(k), name)
		}
		seen[name] = k
		if !PlausibleReason(name) {
			t.Errorf("kind %q not accepted as a plausible reset reason", name)
		}
	}

	// Every kind belongs to some registered defense's emittable set —
	// a kind no defense can produce is dead weight, and a defense
	// emitting a kind it does not declare would fail its fleet oracle.
	for _, k := range kinds {
		emitted := false
		for _, spec := range core.Defenses() {
			if spec.EmitsReason(k.String()) {
				emitted = true
				break
			}
		}
		if !emitted {
			t.Errorf("kind %q is emittable by no registered defense", k)
		}
	}

	// Every kind is reachable through at least one generated oracle: an
	// item either names it in AllowedReasons or leaves the list empty,
	// which admits any plausible kind.
	batch := Generate(99, 256)
	allowed := map[string]bool{}
	anyReason := false
	for _, g := range batch.Items {
		if len(g.AllowedReasons) == 0 {
			anyReason = true
			continue
		}
		for _, want := range g.AllowedReasons {
			allowed[want] = true
			// An AllowedReasons entry matches by substring; one that
			// matches no real kind can never be satisfied.
			hit := false
			for name := range seen {
				if strings.Contains(name, want) {
					hit = true
					break
				}
			}
			if !hit {
				t.Errorf("item %d (%s): AllowedReasons entry %q matches no violation kind", g.Index, g.Family, want)
			}
		}
	}
	if !anyReason {
		t.Fatal("no generated oracle admits arbitrary plausible reasons; kinds outside explicit AllowedReasons are unreachable")
	}
	for _, k := range kinds {
		name := k.String()
		reachable := anyReason // an empty-list oracle admits every kind
		for want := range allowed {
			if strings.Contains(name, want) {
				reachable = true
				break
			}
		}
		if !reachable {
			t.Errorf("kind %q is reachable by no generated oracle", name)
		}
	}
}

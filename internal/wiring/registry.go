package wiring

import (
	"fmt"
	"sort"
	"sync"

	"p4update/internal/controlplane"
	"p4update/internal/packet"
	"p4update/internal/topo"
)

// UpdateSystem is one pluggable consistent-update system. Implementations
// register themselves (Register / RegisterVariant) and are resolved by
// name at construction time; adding a system to the evaluation means
// registering it here — no enum, no construction switch, no hardcoded
// experiment lists.
type UpdateSystem interface {
	// Name is the registry key ("p4update", "ez-segway", ...).
	Name() string
	// DisplayName is the human-readable label used in tables and plots.
	DisplayName() string
	// Build wires the system's data-plane handler and controller glue
	// into a freshly constructed System and returns what starts its
	// updates: the engine, fabric, control placement and tracking
	// controller exist; install delays, fault injection and auditors
	// attach afterwards. Build must not run events or draw from the
	// engine RNG.
	Build(s *System) Updater
}

// Updater starts one system's consistent updates. Every implementation
// reaches the controller through controlplane.Controller.Launch.
type Updater interface {
	// TriggerUpdate starts an update of f to newPath.
	TriggerUpdate(f packet.FlowID, newPath []topo.NodeID) (*controlplane.UpdateStatus, error)
}

// MetricsReporter is an optional UpdateSystem extension: systems with
// per-run extras (the rounds Central and OptOracle sent, PPCU's phase
// flips, ...) report them into the trial's generic Extra map after the
// run, keeping runner metrics schema-stable as systems are added.
type MetricsReporter interface {
	ReportMetrics(s *System, extra map[string]float64)
}

var (
	regMu     sync.RWMutex
	registry  = make(map[string]UpdateSystem)
	primaries []string
)

// Register adds a primary system to the registry: it is resolvable by
// Lookup and listed by Names, so experiment grids iterate it by
// default. Registration order is the default evaluation order. Panics
// on a duplicate name.
func Register(sys UpdateSystem) {
	register(sys, true)
}

// RegisterVariant adds a lookup-only variant (e.g. the forced
// single/dual-layer P4Update modes): resolvable by name but not part of
// the default Names list.
func RegisterVariant(sys UpdateSystem) {
	register(sys, false)
}

func register(sys UpdateSystem, primary bool) {
	regMu.Lock()
	defer regMu.Unlock()
	name := sys.Name()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("wiring: duplicate update system %q", name))
	}
	registry[name] = sys
	if primary {
		primaries = append(primaries, name)
	}
}

// Lookup resolves a registered system by name.
func Lookup(name string) (UpdateSystem, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	sys, ok := registry[name]
	return sys, ok
}

// Names lists the primary systems in registration order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, len(primaries))
	copy(out, primaries)
	return out
}

// AllNames lists every registered name, primaries first (registration
// order) followed by variants (sorted) — for "available systems" error
// messages.
func AllNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, len(primaries))
	copy(out, primaries)
	isPrimary := make(map[string]bool, len(primaries))
	for _, n := range primaries {
		isPrimary[n] = true
	}
	var variants []string
	for n := range registry {
		if !isPrimary[n] {
			variants = append(variants, n)
		}
	}
	sort.Strings(variants)
	return append(out, variants...)
}

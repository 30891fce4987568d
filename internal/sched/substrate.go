package sched

import (
	"fmt"
	"sort"
	"sync"
)

// Substrate is the execution seam every consensus run passes through: it
// takes one body per process and runs all of them to completion, deciding
// *how* the processes' atomic steps interleave. The coroutine step
// scheduler (Simulated) serializes steps under a pluggable adversary and is
// byte-deterministic per seed; the native backend (Native) runs each body as
// a plain goroutine with no arbiter, so the Go runtime and the hardware's
// memory system pick the interleaving.
//
// Implementations must honor the package's halting contract: a run that
// exceeds cfg.MaxSteps ends with ErrStepBudget, a run whose unfinished
// processes can never be scheduled again ends with ErrStalled, and in both
// cases the returned Result is valid (Finished reports who completed).
type Substrate interface {
	// Name identifies the substrate in flags, reports and bench artifacts
	// ("simulated", "native").
	Name() string
	// NativeRegisters reports whether process goroutines race in real time,
	// requiring registers to use their lock-free sync/atomic storage and
	// forfeiting byte-determinism. False means steps are serialized by a
	// grant arbiter and the mutex storage is uncontended.
	NativeRegisters() bool
	// Run executes body once per process under this substrate, blocking
	// until every process finished, crashed, or the step budget tripped.
	Run(cfg Config, body func(*Proc)) (Result, error)
}

// simulatedSubstrate adapts the adversarial step scheduler (Run) to the
// Substrate interface.
type simulatedSubstrate struct{}

func (simulatedSubstrate) Name() string          { return "simulated" }
func (simulatedSubstrate) NativeRegisters() bool { return false }
func (simulatedSubstrate) Run(cfg Config, body func(*Proc)) (Result, error) {
	return Run(cfg, body)
}

// Simulated returns the deterministic step-scheduler substrate — the default
// everywhere a Substrate is optional.
func Simulated() Substrate { return simulatedSubstrate{} }

// The substrate registry lets test harnesses (the conformance suite in
// particular) enumerate every available backend, so a future third substrate
// registered here inherits the whole suite without edits.
var (
	substrateMu  sync.Mutex
	substrateReg = map[string]func() Substrate{}
)

// RegisterSubstrate registers a default-configuration constructor under name.
// Registering a duplicate name panics: substrate names key bench artifacts
// and conformance runs, so a silent overwrite would corrupt both.
func RegisterSubstrate(name string, factory func() Substrate) {
	substrateMu.Lock()
	defer substrateMu.Unlock()
	if _, dup := substrateReg[name]; dup {
		panic(fmt.Sprintf("sched: substrate %q registered twice", name))
	}
	substrateReg[name] = factory
}

// SubstrateNames lists the registered substrates, sorted.
func SubstrateNames() []string {
	substrateMu.Lock()
	defer substrateMu.Unlock()
	names := make([]string, 0, len(substrateReg))
	for name := range substrateReg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NewSubstrate builds a registered substrate with its default configuration.
// Fault injection (crashes, laggers) needs per-run options and goes through
// the concrete constructors (NewNative) instead.
func NewSubstrate(name string) (Substrate, error) {
	substrateMu.Lock()
	factory, ok := substrateReg[name]
	substrateMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("sched: unknown substrate %q (have %v)", name, SubstrateNames())
	}
	return factory(), nil
}

func init() {
	RegisterSubstrate("simulated", Simulated)
	RegisterSubstrate("native", func() Substrate { return NewNative(NativeOptions{}) })
}

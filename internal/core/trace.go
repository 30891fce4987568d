package core

import (
	"fmt"

	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/obs/audit"
	"github.com/dsrepro/consensus/internal/obs/prof"
	"github.com/dsrepro/consensus/internal/obs/space"
	"github.com/dsrepro/consensus/internal/pad"
	"github.com/dsrepro/consensus/internal/register"
	"github.com/dsrepro/consensus/internal/scan"
)

// EventKind classifies protocol trace events.
type EventKind int

// Trace event kinds.
const (
	// EvStart: the process wrote its initial preference.
	EvStart EventKind = iota + 1
	// EvRoundAdvance: the process performed inc (entered a new round).
	EvRoundAdvance
	// EvPrefChange: the process's published preference changed.
	EvPrefChange
	// EvCoinFlip: one random-walk step on the shared coin.
	EvCoinFlip
	// EvCoinDecided: the process observed a decided shared coin.
	EvCoinDecided
	// EvDecide: the process decided and halted.
	EvDecide
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvStart:
		return "start"
	case EvRoundAdvance:
		return "round+"
	case EvPrefChange:
		return "pref"
	case EvCoinFlip:
		return "flip"
	case EvCoinDecided:
		return "coin"
	case EvDecide:
		return "decide"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one protocol-level occurrence during a run. It predates the
// unified obs.Event and is kept as the protocol-facing trace type; base
// mirrors every emission onto the obs sink as a core-layer obs.Event.
type Event struct {
	// Step is the global scheduler step at emission.
	Step int64
	// Pid is the process the event belongs to.
	Pid int
	// Kind classifies the event.
	Kind EventKind
	// Round is the process's local round count at emission.
	Round int64
	// Detail is a short human-readable annotation (new preference, coin
	// outcome, decided value, ...).
	Detail string
}

// String implements fmt.Stringer.
func (e Event) String() string {
	s := fmt.Sprintf("step %7d  p%-2d r%-3d %-7s", e.Step, e.Pid, e.Round, e.Kind)
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// Tracer receives protocol events. Under the step scheduler invocations are
// serialized; in free-running mode a Tracer must synchronize itself.
type Tracer func(Event)

// obsKind maps a legacy protocol event kind onto the unified obs kind.
func obsKind(k EventKind) obs.Kind {
	switch k {
	case EvStart:
		return obs.CoreStart
	case EvRoundAdvance:
		return obs.CoreRound
	case EvPrefChange:
		return obs.CorePref
	case EvCoinFlip:
		return obs.CoreFlip
	case EvCoinDecided:
		return obs.CoreCoin
	case EvDecide:
		return obs.CoreDecide
	default:
		panic(fmt.Sprintf("core: unmapped event kind %d", int(k)))
	}
}

// FromObs converts a core-layer obs event back to the legacy protocol event
// (used to adapt legacy Tracer consumers onto an obs recorder). Non-core
// events have no legacy equivalent; FromObs reports ok=false for them.
func FromObs(e obs.Event) (Event, bool) {
	var k EventKind
	switch e.Kind {
	case obs.CoreStart:
		k = EvStart
	case obs.CoreRound:
		k = EvRoundAdvance
	case obs.CorePref:
		k = EvPrefChange
	case obs.CoreFlip:
		k = EvCoinFlip
	case obs.CoreCoin:
		k = EvCoinDecided
	case obs.CoreDecide:
		k = EvDecide
	default:
		return Event{}, false
	}
	return Event{Step: e.Step, Pid: e.Pid, Kind: k, Round: e.Round, Detail: e.Detail}, true
}

// base is the state every protocol embeds: the effective configuration,
// per-pid round and coin-flip counters, the optional legacy tracer, and the
// run's instruments (sink, invariant monitor, profiler, space meter).
// ExecuteProto installs the instruments and the tracer on every run, nil
// fields included, so a pooled instance never carries stale ones.
type base struct {
	cfg    Config
	rounds []pad.Int64
	flips  []pad.Int64

	tracer Tracer
	sink   *obs.Sink
	mon    *audit.Monitor
	prof   *prof.Profiler
	spc    *space.Meter
}

// newBase fills in cfg's defaults, validates it, and allocates the counters.
func newBase(cfg Config) (base, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return base{}, err
	}
	return base{cfg: cfg, rounds: make([]pad.Int64, cfg.N), flips: make([]pad.Int64, cfg.N)}, nil
}

// Config returns the effective configuration.
func (s *base) Config() Config { return s.cfg }

// SetTracer installs t (nil detaches; call before the run starts).
func (s *base) SetTracer(t Tracer) { s.tracer = t }

// install keeps the protocol level's copy of the run's instruments.
// Protocols' Install methods also forward them to the memory stack beneath.
func (s *base) install(in register.Instruments) {
	s.sink, s.mon, s.prof, s.spc = in.Sink, in.Monitor, in.Profiler, in.Space
}

// reset zeroes the counters and detaches the tracer between pooled runs.
func (s *base) reset() {
	s.tracer = nil
	for i := range s.rounds {
		s.rounds[i].Store(0)
		s.flips[i].Store(0)
	}
}

// metrics returns the per-pid round and coin-flip counts.
func (s *base) metrics() Metrics {
	m := Metrics{Rounds: make([]int64, s.cfg.N), CoinFlips: make([]int64, s.cfg.N)}
	for i := range m.Rounds {
		m.Rounds[i] = s.rounds[i].Load()
		m.CoinFlips[i] = s.flips[i].Load()
	}
	return m
}

// newMemory builds the configured scannable memory in the configured storage
// and scan-retry modes.
func newMemory[E any](cfg Config) (scan.Memory[E], error) {
	factory := register.DirectFactory
	if cfg.UseBloomArrows {
		factory = register.BloomFactory
	}
	return scan.New[E](cfg.MemKind, cfg.N, factory, cfg.Native, cfg.ScanEpoch)
}

// tracing reports whether any trace consumer is attached. Emit sites use it
// to skip building Detail strings (the only allocating part of an event) when
// nobody will see them.
func (s *base) tracing() bool { return s.tracer != nil || s.sink.Tracing() }

// emit fires a protocol event to the legacy tracer (if any) and mirrors it
// onto the obs sink, where it is counted in the registry and, with a recorder
// installed, recorded as a core-layer event.
func (s *base) emit(e Event) {
	if s.tracer != nil {
		s.tracer(e)
	}
	s.sink.Emit(obs.Event{Step: e.Step, Pid: e.Pid, Kind: obsKind(e.Kind), Round: e.Round, Detail: e.Detail})
}

// prefString renders a preference value for trace details.
func prefString(p int8) string {
	if p == Bottom {
		return "⊥"
	}
	return fmt.Sprintf("%d", p)
}

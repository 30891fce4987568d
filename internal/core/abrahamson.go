package core

import (
	"sync/atomic"

	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/obs/audit"
	"github.com/dsrepro/consensus/internal/obs/space"
	"github.com/dsrepro/consensus/internal/register"
	"github.com/dsrepro/consensus/internal/scan"
	"github.com/dsrepro/consensus/internal/sched"
)

// Abrahamson is the remaining quadrant of the paper's related-work matrix:
// an [A88]-style protocol that is unbounded in memory (explicit round
// numbers) AND exponential in expected time (independent local coin flips,
// no shared coin). Together with AHUnbounded (unbounded, polynomial),
// ExpLocal (bounded, exponential) and Bounded (bounded, polynomial — the
// paper), the four protocols cover the full space/time design matrix the
// introduction narrates:
//
//	                 exponential time        polynomial time
//	unbounded space  Abrahamson [A88]        AHUnbounded [AH88]
//	bounded space    ExpLocal [ADS89-style]  Bounded (this paper)
type Abrahamson struct {
	base
	mem      scan.Memory[UEntry]
	maxRound atomic.Int64
}

// NewAbrahamson builds an instance. B and M are ignored (no shared coin).
func NewAbrahamson(cfg Config) (*Abrahamson, error) {
	b, err := newBase(cfg)
	if err != nil {
		return nil, err
	}
	mem, err := newMemory[UEntry](b.cfg)
	if err != nil {
		return nil, err
	}
	return &Abrahamson{base: b, mem: mem}, nil
}

// Name implements Protocol.
func (a *Abrahamson) Name() string { return "abrahamson" }

// Install implements Protocol (see Bounded.Install). Entries carry only a
// preference and an explicit round number, so the static space layout is
// tiny — the unbounded part is the round magnitude, measured online in inc.
func (a *Abrahamson) Install(in register.Instruments) {
	a.install(in)
	a.mem.Install(in)
	in.Monitor.SetStateFn(a.captureState)
	m := in.Space
	m.AddWords(space.LayerCore, int64(a.cfg.N)*2) // pref + round
	m.DeclareDomain(space.LayerCore, 3)
	m.DeclareUnbounded(space.LayerCore) // explicit round numbers
}

// captureState snapshots the published state for flight dumps (no coin
// strips: this protocol's entries carry only preference and round).
func (a *Abrahamson) captureState() audit.State {
	n := a.cfg.N
	st := audit.State{Prefs: make([]int, n), Rounds: make([]int64, n)}
	for i := 0; i < n; i++ {
		e := a.mem.PeekSlot(i)
		st.Prefs[i] = int(e.Pref)
		st.Rounds[i] = e.Round
	}
	return st
}

// Reset implements Protocol.
func (a *Abrahamson) Reset() {
	a.mem.Reset()
	a.reset()
	a.maxRound.Store(0)
}

// Metrics implements Protocol.
func (a *Abrahamson) Metrics() Metrics {
	m := a.metrics()
	m.MaxRound = a.maxRound.Load()
	return m
}

func (a *Abrahamson) inc(p *sched.Proc, st UEntry) UEntry {
	st.Round++ // value field (this protocol's entries never grow a strip)
	a.spc.NoteValue(space.LayerCore, st.Round)
	a.rounds[p.ID()].Add(1)
	atomicMax(&a.maxRound, st.Round)
	a.sink.GaugeMax(obs.GaugeMaxRound, st.Round)
	a.emit(Event{Step: p.Now(), Pid: p.ID(), Kind: EvRoundAdvance, Round: st.Round})
	return st
}

// Run implements Protocol for one process: the unbounded-round decide/adopt
// structure with an independent local coin on conflict.
func (a *Abrahamson) Run(p *sched.Proc, input int) int {
	i := p.ID()
	st := UEntry{Pref: int8(input)}
	span := obs.StartPhaseSpan(p.Steps())
	if a.prof.Enabled() {
		span.Observe(a.prof)
	}
	span.To(a.sink, obs.PhaseStrip, i, p.Now(), p.Steps())
	st = a.inc(p, st)
	a.mem.Write(p, st)
	a.emit(Event{Step: p.Now(), Pid: i, Kind: EvStart, Round: st.Round, Detail: "pref=" + prefString(st.Pref)})
	span.To(a.sink, obs.PhasePrefer, i, p.Now(), p.Steps())

	for {
		view := a.mem.Scan(p)
		normalizeUView(view)
		view[i] = st

		rmax, agree, v := uLeaders(view)

		if st.Pref != Bottom && st.Round == rmax {
			ok := true
			for j, ent := range view {
				if j == i || ent.Pref == st.Pref {
					continue
				}
				if ent.Round > st.Round-int64(a.cfg.K) {
					ok = false
					break
				}
			}
			if ok {
				span.To(a.sink, obs.PhaseDecide, i, p.Now(), p.Steps())
				a.sink.Observe(obs.HistStepsToDecide, p.Steps())
				a.emit(Event{Step: p.Now(), Pid: i, Kind: EvDecide, Round: st.Round, Detail: prefString(st.Pref)})
				span.Finish(a.sink, i, p.Now(), p.Steps())
				return int(st.Pref)
			}
		}

		if agree {
			span.To(a.sink, obs.PhaseStrip, i, p.Now(), p.Steps())
			st = a.inc(p, st)
			st.Pref = v
			a.mem.Write(p, st)
			span.To(a.sink, obs.PhasePrefer, i, p.Now(), p.Steps())
			continue
		}

		// Conflict: withdraw first (the paper's ⊥ pause — see ExpLocal for
		// why it is load-bearing), then flip and advance.
		if st.Pref != Bottom {
			st.Pref = Bottom // value field: no clone needed
			a.mem.Write(p, st)
			continue
		}
		span.To(a.sink, obs.PhaseStrip, i, p.Now(), p.Steps())
		st = a.inc(p, st)
		span.To(a.sink, obs.PhaseCoin, i, p.Now(), p.Steps())
		st.Pref = int8(p.Rand().Intn(2))
		a.flips[i].Add(1)
		a.mem.Write(p, st)
		a.emit(Event{Step: p.Now(), Pid: i, Kind: EvCoinFlip, Round: st.Round, Detail: "local=" + prefString(st.Pref)})
		span.To(a.sink, obs.PhasePrefer, i, p.Now(), p.Steps())
	}
}

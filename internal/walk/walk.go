// Package walk implements the paper's §3 weak shared coin: the
// Aspnes–Herlihy random walk over an array of per-process counters, with the
// paper's modification that bounds every counter to a finite range
// {-(m+1) .. m+1} and deterministically returns heads when a counter
// overflows. Lemmas 3.3/3.4 show that for m large enough the overflow
// probability folds into the coin's (already nonzero) disagreement
// probability, so boundedness costs nothing asymptotically.
//
// The package separates the pure walk arithmetic (Value, StepCounter — reused
// by the consensus protocol, whose counters live inside scannable-memory
// entries) from SharedCoin, a standalone runtime over its own scannable
// memory used by the coin experiments E1–E3.
package walk

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/obs/audit"
	"github.com/dsrepro/consensus/internal/register"
	"github.com/dsrepro/consensus/internal/scan"
	"github.com/dsrepro/consensus/internal/sched"
)

// MutUnclamped is the walk layer's fault injector: when enabled, StepCounter
// double-applies each move and skips the ±(M+1) saturation, so a counter at
// ±M jumps straight outside the bounded range {-(M+1)..M+1} — the bug
// ProbeCoinRange exists to catch. (Skipping only the clamp would be
// unobservable: the walk checks the coin value before every step, so a
// counter at M+1 already reads as overflow and is never stepped again.)
// Registered as "walk.unclamped".
var MutUnclamped atomic.Bool

func init() { audit.RegisterMutation("walk.unclamped", &MutUnclamped) }

// Outcome is the result of interrogating the shared coin.
type Outcome int

// Coin outcomes. Undecided means the walk has not yet crossed a barrier.
const (
	Undecided Outcome = iota
	Heads
	Tails
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Undecided:
		return "undecided"
	case Heads:
		return "heads"
	case Tails:
		return "tails"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Params are the shared-coin parameters.
type Params struct {
	// N is the number of processes contributing to the walk.
	N int
	// B is the barrier multiplier: the walk decides when the summed counter
	// value leaves (-B·N, B·N). The paper's §3 calls this b; larger B lowers
	// the disagreement probability (Lemma 3.1: ~(N-1)/(2B)) at the price of a
	// longer walk (Lemma 3.2: expected (B+1)·N² steps).
	B int
	// M bounds each per-process counter to {-(M+1) .. M+1}; a counter outside
	// {-M .. M} forces the outcome heads (the paper's overflow rule). M <= 0
	// means unbounded counters (the Aspnes–Herlihy baseline).
	M int
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.N < 1 {
		return fmt.Errorf("walk: N must be >= 1, got %d", p.N)
	}
	if p.B < 1 {
		return fmt.Errorf("walk: B must be >= 1, got %d", p.B)
	}
	return nil
}

// Bounded reports whether counters are bounded.
func (p Params) Bounded() bool { return p.M > 0 }

// DefaultM returns the counter bound the paper's Lemma 3.3 suggests:
// m = (f(b)·b·n)² with a small constant f, comfortably above the barrier so
// overflow is rare. Used when a caller does not choose M explicitly.
func (p Params) DefaultM() int {
	base := p.B * p.N
	return 4 * base * base
}

// Value is the paper's coin_value function: given the counter array read from
// a snapshot, it returns the coin outcome for process reading counters c.
//
//	1: if any counter is outside {-m..m}        -> heads (overflow rule)
//	2: if sum(c) >  B·N                          -> heads
//	3: if sum(c) < -B·N                          -> tails
//	4: otherwise                                 -> undecided
func (p Params) Value(c []int) Outcome {
	if p.Bounded() {
		for _, ci := range c {
			if ci < -p.M || ci > p.M {
				return Heads
			}
		}
	}
	sum := 0
	for _, ci := range c {
		sum += ci
	}
	switch {
	case sum > p.B*p.N:
		return Heads
	case sum < -p.B*p.N:
		return Tails
	default:
		return Undecided
	}
}

// StepCounter is the paper's walk_step applied to a single counter: move the
// counter one step in the direction of a fair local coin flip, saturating at
// ±(M+1) in bounded mode (the saturated value itself signals overflow to
// every Value reader).
func (p Params) StepCounter(c int, rng *rand.Rand) int {
	d := 1
	if rng.Intn(2) != 0 {
		d = -1
	}
	c += d
	if MutUnclamped.Load() {
		return c + d // injected bug: double-apply, no saturation
	}
	if p.Bounded() {
		if c > p.M+1 {
			c = p.M + 1
		}
		if c < -(p.M + 1) {
			c = -(p.M + 1)
		}
	}
	return c
}

// StepCounterTraced is StepCounter plus observability: it emits a WalkStep
// event carrying the new counter value, and a WalkOverflow event when the
// counter saturates at ±(M+1). The consensus protocols and SharedCoin both
// route their walk steps through it so the walk layer shows up uniformly in
// traces.
func (p Params) StepCounterTraced(c int, proc *sched.Proc, sink *obs.Sink) int {
	return p.StepCounterAudited(c, proc, sink, nil)
}

// StepCounterAudited is StepCounterTraced plus the invariant monitor's
// coin-range probe: every new counter value is checked against {-(M+1)..M+1}
// and saturations are accounted as truncations. A nil monitor costs one
// branch.
func (p Params) StepCounterAudited(c int, proc *sched.Proc, sink *obs.Sink, mon *audit.Monitor) int {
	nc := p.StepCounter(c, proc.Rand())
	sink.Emit(obs.Event{Step: proc.Now(), Pid: proc.ID(), Kind: obs.WalkStep, Value: int64(nc)})
	if p.Bounded() && (nc == p.M+1 || nc == -(p.M+1)) {
		sink.Emit(obs.Event{Step: proc.Now(), Pid: proc.ID(), Kind: obs.WalkOverflow, Value: int64(nc)})
	}
	mon.CoinCounter(proc.Now(), proc.ID(), nc, p.M)
	return nc
}

// SharedCoin is a standalone weak shared coin over its own scannable memory,
// one counter per process. The consensus protocol embeds the same arithmetic
// in its round entries instead of using this type directly.
type SharedCoin struct {
	params Params
	sink   *obs.Sink
	mem    *scan.Arrow[int]
	local  []int // local[i]: i's counter (owner-only; mirrors mem slot i)
	steps  []int64

	// OnStep, if non-nil, is invoked after every walk step with the stepping
	// process and the walk value as mirrored locally — a tracing hook for the
	// E10 trajectory experiment. Set before the run starts; calls are
	// serialized under the step scheduler (do not use in free-running mode).
	// Because a process mutates its local counter before its write is
	// scheduled, consecutive traced values can differ by up to 2.
	OnStep func(pid, walkValue int)
}

// NewSharedCoin builds a shared coin over an Arrow scannable memory with
// direct 2W2R registers.
func NewSharedCoin(params Params) (*SharedCoin, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &SharedCoin{
		params: params,
		mem:    scan.NewArrow[int](params.N, register.DirectFactory),
		local:  make([]int, params.N),
		steps:  make([]int64, params.N),
	}, nil
}

// Params returns the coin's parameters.
func (s *SharedCoin) Params() Params { return s.params }

// Reset restores the coin to its initial state (all counters zero, underlying
// memory reset, hooks cleared) for instance pooling. Call only between runs.
func (s *SharedCoin) Reset() {
	s.mem.Reset()
	for i := range s.local {
		s.local[i] = 0
		s.steps[i] = 0
	}
	s.OnStep = nil
}

// Install installs the run's instruments on the coin and the scannable
// memory beneath it (nil fields detach). Call before the run starts.
func (s *SharedCoin) Install(in register.Instruments) {
	s.sink = in.Sink
	s.mem.Install(in)
}

// SetNative rebuilds the memory stack's registers in the substrate's storage
// mode (see scan.Arrow.SetNative); call on a fresh coin, before Install.
func (s *SharedCoin) SetNative(on bool) { s.mem.SetNative(on) }

// Flip drives the random walk on behalf of p until the coin decides, and
// returns the outcome p observed. Different processes may observe different
// outcomes with probability bounded by Lemma 3.1 — that is what makes the
// coin "weak".
func (s *SharedCoin) Flip(p *sched.Proc) Outcome {
	i := p.ID()
	for {
		c := s.mem.Scan(p)
		c[i] = s.local[i]
		if o := s.params.Value(c); o != Undecided {
			s.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.WalkDecided, Value: int64(o)})
			return o
		}
		s.local[i] = s.params.StepCounterTraced(s.local[i], p, s.sink)
		s.mem.Write(p, s.local[i])
		s.steps[i]++
		if s.OnStep != nil {
			sum := 0
			for _, v := range s.local {
				sum += v
			}
			s.OnStep(i, sum)
		}
	}
}

// WalkSteps returns how many walk steps (counter moves) pid performed.
func (s *SharedCoin) WalkSteps(pid int) int64 { return s.steps[pid] }

// TotalWalkSteps returns the walk steps summed over all processes.
func (s *SharedCoin) TotalWalkSteps() int64 {
	var t int64
	for _, v := range s.steps {
		t += v
	}
	return t
}

// Overflowed reports whether pid's counter saturated at ±(M+1) at any point
// it is currently observable. (Saturation is sticky in magnitude terms only
// while the counter sits at the edge; experiments sample it right after a
// flip completes.)
func (s *SharedCoin) Overflowed(pid int) bool {
	if !s.params.Bounded() {
		return false
	}
	c := s.local[pid]
	return c < -s.params.M || c > s.params.M
}

// WalkValuePeek returns the current walk value as mirrored locally, without
// a scheduler step or process context. It exists for protocol-aware ("strong")
// adversaries and metrics — never for algorithm logic, which must scan.
func (s *SharedCoin) WalkValuePeek() int {
	sum := 0
	for _, v := range s.local {
		sum += v
	}
	return sum
}

// MaxAbsCounter returns the largest |counter| over all processes — the
// space-accounting hook for experiment E6.
func (s *SharedCoin) MaxAbsCounter() int {
	m := 0
	for _, c := range s.local {
		if c < 0 {
			c = -c
		}
		if c > m {
			m = c
		}
	}
	return m
}

// TheoreticalDisagreement returns Lemma 3.1's bound on the probability that
// two processes disagree on the coin's outcome: (N-1)/(2B).
func (p Params) TheoreticalDisagreement() float64 {
	return float64(p.N-1) / float64(2*p.B)
}

// TheoreticalExpectedSteps returns Lemma 3.2's expected number of walk steps
// until the coin is decided: (B+1)²·N². (The OCR of the preliminary text
// reads "(b + 1)' n2"; the prime is a squared sign — an unbiased walk with
// absorbing barriers at ±B·N needs Θ((B·N)²) steps, so only the squared
// reading is dimensionally consistent, and it matches measurement: see E2.)
func (p Params) TheoreticalExpectedSteps() float64 {
	bn := float64(p.B + 1)
	return bn * bn * float64(p.N) * float64(p.N)
}

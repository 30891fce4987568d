package sched

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/dsrepro/consensus/internal/obs"
)

// The commuting-dispatch engine (Config.Commuting) generalizes the direct
// dispatcher: instead of granting one step per adversary consult, the
// adversary's pick opens a *batch* — a set of waiting processes whose declared
// register footprints pairwise commute (see footprint.go) — and every batch
// member receives a run of steps before the adversary is consulted again.
//
// The engine never executes two steps at the same wall-clock instant: batch
// members run one after another in admission order, each holding the token
// for up to a quantum of steps, so the execution *is* a sequential schedule
// and stays byte-deterministic. What the batch buys is schedule shape and
// engine overhead: commuting runs let an O(n) scan complete without an
// adversary-inserted writer tripping it (the scan-retry burn the profiler
// blames for the n-scaling wall), coalesced runs replace channel handoffs
// with plain returns, and the adversary is consulted once per batch instead
// of once per step. Because every executed schedule is a legal sequential
// grant order, replaying its recorded grant sequence through the sequential
// dispatcher reproduces the run byte-for-byte — the equivalence suites
// (commute_test.go, core/engine_equiv_test.go) prove exactly that.
//
// Memory-model note: like the dispatcher, all mutable scheduling state is
// owned by the token holder. A parked process's last action before blocking
// is either its own grant send (token handoff) or a startPending atomic RMW
// (startup), both of which publish its footprint declaration to later token
// holders, so the batch former reads fps[pid] race-free.

// defaultCommuteQuantum bounds how many consecutive steps one batch member
// may coalesce before the token moves on. Large enough for a full scan pass
// plus a write at the ns the matrix measures, small enough that batch mates
// are not starved within their batch.
const defaultCommuteQuantum = 64

type commuter struct {
	n        int
	adv      Adversary
	ext      Extender // non-nil iff adv implements Extender
	quantum  int
	maxSteps int64
	onStep   func(pid int, step int64)
	sink     *obs.Sink

	slots    []procSlot
	live     []int
	isLive   []bool
	finished []bool

	// fps[pid] is the footprint pid declared for its pending step; it is
	// consumed (and only changes) when pid next runs, so for a parked batch
	// member it is exactly the admitted footprint.
	fps      []Footprint
	batch    []int // admitted commuting set, in grant order
	batchIdx int   // index of the member currently holding the token
	runLeft  int   // quantum remaining for the current member's run

	steps         int64
	grantsPending int64
	clock         atomic.Int64
	startPending  atomic.Int32

	doneMu  sync.Mutex
	err     error
	badPick string
}

func newCommuter(cfg Config, adv Adversary) *commuter {
	q := cfg.CommuteQuantum
	if q < 1 {
		q = defaultCommuteQuantum
	}
	ext, _ := adv.(Extender)
	c := &commuter{
		n:        cfg.N,
		adv:      adv,
		ext:      ext,
		quantum:  q,
		maxSteps: cfg.MaxSteps,
		onStep:   cfg.OnStep,
		sink:     cfg.Sink,
		slots:    make([]procSlot, cfg.N),
		live:     make([]int, cfg.N),
		isLive:   make([]bool, cfg.N),
		finished: make([]bool, cfg.N),
		fps:      make([]Footprint, cfg.N),
		batch:    make([]int, 0, cfg.N),
	}
	for i := 0; i < cfg.N; i++ {
		c.slots[i].grant = make(chan bool, 1)
		c.slots[i].arrived = make(chan struct{})
		c.live[i] = i
		c.isLive[i] = true
	}
	c.batchIdx = 0 // batch is empty: batchIdx >= len(batch) means "no active batch"
	c.startPending.Store(int32(cfg.N))
	return c
}

func (c *commuter) now() int64 { return c.clock.Load() }

// step implements gate: capture the caller's declared footprint, then run the
// same arrival/dispatch protocol as the sequential dispatcher.
func (c *commuter) step(p *Proc) {
	pid := p.id
	c.fps[pid] = Footprint{Key: p.fpKey, Write: p.fpWrite}
	p.fpKey, p.fpWrite = 0, false
	c.slots[pid].enqueuedAt = c.steps
	if p.steps == 0 {
		close(c.slots[pid].arrived)
		if c.startPending.Add(-1) > 0 {
			c.park(pid)
			return
		}
	}
	switch c.dispatch(pid) {
	case grantedSelf:
		return
	case haltedRun:
		panic(haltSignal{})
	default:
		c.park(pid)
	}
}

func (c *commuter) park(pid int) {
	if ok := <-c.slots[pid].grant; !ok {
		panic(haltSignal{})
	}
}

// issue charges and counts one grant to pid. The caller has checked the
// budget and decided pid is the next token holder.
func (c *commuter) issue(pid int) {
	s := &c.slots[pid]
	s.waitSteps += c.steps - s.enqueuedAt
	c.steps++
	s.perProc++
	c.clock.Store(c.steps)
	if c.sink != nil {
		c.grantsPending++
		if c.grantsPending >= grantFlushBatch {
			c.flushGrants()
		}
	}
	if c.onStep != nil {
		c.onStep(pid, c.steps)
	}
}

// eligible reports whether the adversary permits engine-chosen grants to pid
// right now. Without an Extender nothing beyond the leader pick is permitted.
func (c *commuter) eligible(pid int) bool {
	return c.ext != nil && c.ext.Eligible(pid, c.steps)
}

// extensionCommutes reports whether self's newly declared footprint commutes
// with every admitted-but-not-yet-executed batch member's granted step. Only
// members after batchIdx are in flight: earlier members already executed
// their grants, and fps for them has moved on to their next (unadmitted) op.
func (c *commuter) extensionCommutes(self int) bool {
	for k := c.batchIdx + 1; k < len(c.batch); k++ {
		m := c.batch[k]
		if c.isLive[m] && !Commutes(c.fps[self], c.fps[m]) {
			return false
		}
	}
	return true
}

// dispatch issues the next grant: extend the current member's run, hand the
// token to the next admitted member, or consult the adversary for a new
// batch. self is -1 when called from a completion.
func (c *commuter) dispatch(self int) verdict {
	// Run extension: the current member keeps the token for up to a quantum,
	// as long as the adversary still considers it eligible and each new
	// footprint commutes with every in-flight granted step. An undeclared
	// footprint extends only when no other grants are in flight (the batch
	// tail is empty), where any op is trivially safe.
	if self >= 0 && c.batchIdx < len(c.batch) && c.batch[c.batchIdx] == self &&
		c.runLeft > 0 && c.eligible(self) &&
		(c.extensionCommutes(self) && (c.fps[self].Declared() || c.batchIdx == len(c.batch)-1)) {
		if c.maxSteps > 0 && c.steps >= c.maxSteps {
			c.halt(ErrStepBudget, self)
			return haltedRun
		}
		c.runLeft--
		c.issue(self)
		return grantedSelf
	}
	// Token handoff: advance to the next live, still-eligible admitted
	// member. A member that finished or crashed since admission is skipped —
	// its granted step never executes.
	for c.batchIdx+1 < len(c.batch) {
		c.batchIdx++
		pid := c.batch[c.batchIdx]
		if !c.isLive[pid] || !c.eligible(pid) {
			continue
		}
		if c.maxSteps > 0 && c.steps >= c.maxSteps {
			c.halt(ErrStepBudget, self)
			return haltedRun
		}
		c.runLeft = c.quantum - 1
		c.issue(pid)
		if pid == self {
			return grantedSelf
		}
		c.slots[pid].grant <- true
		return grantedOther
	}
	// Batch exhausted: the adversary picks the next leader; eligible waiters
	// with pairwise-commuting footprints join its batch.
	if c.maxSteps > 0 && c.steps >= c.maxSteps {
		c.halt(ErrStepBudget, self)
		return haltedRun
	}
	pick := c.adv.Next(c.live, c.steps)
	if pick == -1 {
		c.halt(ErrStalled, self)
		return haltedRun
	}
	if pick < 0 || pick >= c.n || !c.isLive[pick] {
		c.badPick = fmt.Sprintf("sched: adversary picked pid %d not in waiting set %v", pick, c.live)
		c.halt(ErrStalled, self)
		return haltedRun
	}
	var elig func(pid int) bool
	if c.ext != nil {
		elig = func(pid int) bool { return c.isLive[pid] && c.ext.Eligible(pid, c.steps) }
	}
	c.batch = BuildCommutingSet(pick, c.live, c.fps, elig, c.batch)
	if err := VerifyCommutingSet(c.batch, c.fps); err != nil {
		c.badPick = err.Error()
		c.halt(ErrStalled, self)
		return haltedRun
	}
	c.batchIdx = 0
	c.runLeft = c.quantum - 1
	c.issue(pick)
	if pick == self {
		return grantedSelf
	}
	c.slots[pick].grant <- true
	return grantedOther
}

func (c *commuter) halt(err error, self int) {
	c.err = err
	c.flushGrants()
	for _, pid := range c.live {
		if pid != self {
			c.slots[pid].grant <- false
		}
	}
}

func (c *commuter) flushGrants() {
	if c.grantsPending > 0 {
		c.sink.CountN(obs.SchedGrant, c.grantsPending)
		c.grantsPending = 0
	}
}

func (c *commuter) done(p *Proc) {
	c.doneMu.Lock()
	defer c.doneMu.Unlock()
	pid := p.id
	if p.steps == 0 {
		close(c.slots[pid].arrived)
	}
	c.finished[pid] = true
	c.isLive[pid] = false
	for i, v := range c.live {
		if v == pid {
			c.live = append(c.live[:i], c.live[i+1:]...)
			break
		}
	}
	if len(c.live) == 0 {
		c.flushGrants()
		return
	}
	if p.steps == 0 && c.startPending.Add(-1) > 0 {
		return
	}
	c.dispatch(-1)
}

// runCommuting executes body under the commuting-dispatch engine. Startup,
// teardown and Result assembly mirror Run's dispatcher path exactly.
func runCommuting(cfg Config, adv Adversary, body func(*Proc)) (Result, error) {
	c := newCommuter(cfg, adv)
	procs := newProcs(cfg.N, cfg.Seed, c)
	defer releaseProcs(procs)

	var wg sync.WaitGroup
	for i, p := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					if _, ok := rec.(haltSignal); !ok {
						panic(rec)
					}
				}
			}()
			body(p)
			c.done(p)
		}()
		<-c.slots[i].arrived
	}
	wg.Wait()
	c.flushGrants()
	if c.badPick != "" {
		panic(c.badPick)
	}
	res := Result{
		Steps:     c.steps,
		PerProc:   make([]int64, cfg.N),
		WaitSteps: make([]int64, cfg.N),
		Finished:  c.finished,
	}
	for i := range c.slots {
		res.PerProc[i] = c.slots[i].perProc
		res.WaitSteps[i] = c.slots[i].waitSteps
	}
	return res, c.err
}

package sched

// The commuting-dispatch engine (Config.Commuting) generalizes the sequential
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
// blames for the n-scaling wall), coalesced runs replace coroutine switches
// with plain returns, and the adversary is consulted once per batch instead
// of once per step. Because every executed schedule is a legal sequential
// grant order, replaying its recorded grant sequence through the sequential
// dispatcher reproduces the run byte-for-byte — the equivalence suites
// (commute_test.go, core/engine_equiv_test.go) prove exactly that.
//
// The commuter shares the sequential dispatcher's coroutine driver (coro.go)
// and differs only in its dispatch policy. Memory-model note: all mutable
// scheduling state is owned by the running coroutine. A parked process's last
// action is its own yield, a coroutine switch that orders its footprint
// declaration before every later token holder's reads, so the batch former
// reads fps[pid] race-free.

// defaultCommuteQuantum bounds how many consecutive steps one batch member
// may coalesce before the token moves on. Large enough for a full scan pass
// plus a write at the ns the matrix measures, small enough that batch mates
// are not starved within their batch.
const defaultCommuteQuantum = 64

type commuter struct {
	driver
	ext     Extender // non-nil iff adv implements Extender
	quantum int

	// fps[pid] is the footprint pid declared for its pending step; it is
	// consumed (and only changes) when pid next runs, so for a parked batch
	// member it is exactly the admitted footprint.
	fps      []Footprint
	batch    []int // admitted commuting set, in grant order
	batchIdx int   // index of the member currently holding the token
	runLeft  int   // quantum remaining for the current member's run
}

func newCommuter(cfg Config, adv Adversary) *commuter {
	q := cfg.CommuteQuantum
	if q < 1 {
		q = defaultCommuteQuantum
	}
	ext, _ := adv.(Extender)
	return &commuter{
		driver:  newDriver(cfg, adv),
		ext:     ext,
		quantum: q,
		fps:     make([]Footprint, cfg.N),
		batch:   make([]int, 0, cfg.N), // empty: batchIdx >= len(batch) means "no active batch"
	}
}

// step implements gate: capture the caller's declared footprint, then run the
// same arrival/dispatch protocol as the sequential dispatcher.
func (c *commuter) step(p *Proc) {
	c.fps[p.id] = Footprint{Key: p.fpKey, Write: p.fpWrite}
	p.fpKey, p.fpWrite = 0, false
	if !c.enter(p) {
		c.settle(p.id, c.dispatch(p.id))
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
// batch. self is -1 when the driver or a completing body dispatches.
func (c *commuter) dispatch(self int) verdict {
	// Run extension: the current member keeps the token for up to a quantum,
	// as long as the adversary still considers it eligible and each new
	// footprint commutes with every in-flight granted step. An undeclared
	// footprint extends only when no other grants are in flight (the batch
	// tail is empty), where any op is trivially safe.
	if self >= 0 && c.batchIdx < len(c.batch) && c.batch[c.batchIdx] == self &&
		c.runLeft > 0 && c.eligible(self) &&
		(c.extensionCommutes(self) && (c.fps[self].Declared() || c.batchIdx == len(c.batch)-1)) {
		if c.overBudget() {
			return c.halt(ErrStepBudget)
		}
		c.runLeft--
		return c.grant(self, self)
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
		if c.overBudget() {
			return c.halt(ErrStepBudget)
		}
		c.runLeft = c.quantum - 1
		return c.grant(pid, self)
	}
	// Batch exhausted: the adversary picks the next leader; eligible waiters
	// with pairwise-commuting footprints join its batch.
	if c.overBudget() {
		return c.halt(ErrStepBudget)
	}
	pick := c.consult()
	if pick < 0 {
		return haltedRun
	}
	var elig func(pid int) bool
	if c.ext != nil {
		elig = func(pid int) bool { return c.isLive[pid] && c.ext.Eligible(pid, c.steps) }
	}
	c.batch = BuildCommutingSet(pick, c.live, c.fps, elig, c.batch)
	if err := VerifyCommutingSet(c.batch, c.fps); err != nil {
		c.badPick = err.Error()
		return c.halt(ErrStalled)
	}
	c.batchIdx = 0
	c.runLeft = c.quantum - 1
	return c.grant(pick, self)
}

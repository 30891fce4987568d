// Package sched provides a deterministic, adversarially scheduled execution
// substrate for asynchronous shared-memory algorithms.
//
// Every atomic shared-memory action performed by a simulated process must be
// preceded by a call to Proc.Step. Under the step scheduler, Step suspends the
// calling process until an Adversary selects it to move; at most one process
// is between Step and its atomic action at any time, so the interleaving of
// atomic actions is exactly the sequence of scheduler grants. This yields
// fully deterministic executions for a given (seed, adversary) pair, which is
// what the correctness and complexity experiments in this repository rely on.
//
// Two step engines implement that contract:
//
//   - The coroutine engine (the default): every process body runs as a
//     runtime coroutine (iter.Pull, coro.go), driven from the goroutine that
//     called Run. The process holding the "token" (the one currently between
//     a grant and its next Step) consults the adversary inline at its next
//     Step. When the adversary picks the token holder again, the grant
//     coalesces into a plain function return, and consecutive grants to one
//     process execute as a run of steps. A cross-process grant switches
//     coroutines on the same thread, with no trip through the Go scheduler.
//     The sequential dispatcher (one grant per adversary consult) and the
//     commuting dispatcher (Config.Commuting, commute.go) are two dispatch
//     policies over that one driver. See DESIGN.md §11.
//   - The rendezvous engine (Config.Rendezvous): a dedicated scheduler
//     goroutine mediates every step through an event send plus a grant send
//     to process goroutines, two channel crossings per atomic step. It is the
//     reference implementation: the equivalence suites prove the coroutine
//     engine produces byte-identical executions against it.
//
// The package also provides a free-running mode (see RunFree) in which Step is
// a no-op and processes race natively as goroutines; atomicity of individual
// register operations is then guaranteed by the register implementations
// themselves. Free-running mode is used for smoke tests that exercise real
// concurrency.
package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"github.com/dsrepro/consensus/internal/obs"
)

// Sentinel errors returned by Run.
var (
	// ErrStepBudget indicates the run exceeded Config.MaxSteps before every
	// live process finished.
	ErrStepBudget = errors.New("sched: step budget exceeded")

	// ErrStalled indicates the adversary refused to schedule any waiting
	// process (all remaining processes are crashed) while at least one
	// process had not finished.
	ErrStalled = errors.New("sched: execution stalled (all waiting processes crashed)")
)

// haltSignal is thrown (via panic) into a process suspended in Step when the
// run is being torn down (budget exceeded or stall). It is recovered by the
// process's coroutine or goroutine wrapper and never escapes this package.
type haltSignal struct{}

// Proc is the handle a simulated process uses to interact with the scheduler.
// It carries the process identity, a private deterministic random source, and
// the gate through which every atomic step must pass. A Proc is owned by a
// single goroutine and must not be shared.
type Proc struct {
	id    int
	rng   *rand.Rand
	steps int64
	gate  gate

	// Pending footprint declaration for the next Step (see footprint.go).
	// Written by DeclareRead/DeclareWrite immediately before Step and consumed
	// by the commuting engine's gate; a step taken without a declaration has
	// fpKey 0 (undeclared) and is treated as conflicting with everything.
	fpKey   int64
	fpWrite bool
}

// gate abstracts how a Step is granted.
type gate interface {
	step(p *Proc)
	now() int64
}

// ID returns the process identifier in [0, n).
func (p *Proc) ID() int { return p.id }

// Rand returns the process-private deterministic random source. Algorithms
// must draw all randomness from here so runs are reproducible from the seed.
// The generator is valid only inside the body: the run recycles it when it
// returns, so callers must not keep it past the body's return.
func (p *Proc) Rand() *rand.Rand { return p.rng }

// Steps reports how many atomic steps this process has performed so far.
func (p *Proc) Steps() int64 { return p.steps }

// Now returns the global step count at the time of the call. It is used by
// instrumentation (history recording) to timestamp operation intervals; it is
// not meant to be consulted by algorithm logic.
func (p *Proc) Now() int64 { return p.gate.now() }

// Step blocks until the scheduler grants this process its next atomic
// shared-memory action. Register implementations call it internally; most
// algorithm code never needs to call it directly.
func (p *Proc) Step() {
	p.gate.step(p)
	p.steps++
}

// DeclareRead declares that this process's next Step reads the register
// identified by key (from NewFootprintKey). Register implementations call it
// immediately before Step; the commuting engine uses the declaration to admit
// provably-commuting steps into one batch. Under every other gate the two
// field stores are the entire cost.
func (p *Proc) DeclareRead(key int64) { p.fpKey, p.fpWrite = key, false }

// DeclareWrite declares that this process's next Step writes the register
// identified by key. See DeclareRead.
func (p *Proc) DeclareWrite(key int64) { p.fpKey, p.fpWrite = key, true }

// Adversary chooses which waiting process performs the next atomic step.
type Adversary interface {
	// Next picks a pid from waiting (sorted ascending, always non-empty) to
	// schedule for the step numbered step (0-based). Returning a pid not in
	// waiting is a programming error and aborts the run. Returning -1 means
	// "refuse to schedule anyone" (every waiting process is considered
	// crashed); if no further process can finish, the run ends with
	// ErrStalled, and processes that already finished keep their results.
	Next(waiting []int, step int64) int
}

// Config configures a scheduled run.
type Config struct {
	// N is the number of processes. Must be >= 1.
	N int

	// Seed seeds the run: the adversary constructors in this package and the
	// per-process random sources are all derived from it.
	Seed int64

	// Adversary picks the interleaving. Nil defaults to round-robin.
	Adversary Adversary

	// MaxSteps bounds the total number of atomic steps; 0 means no bound.
	// Exceeding it aborts the run with ErrStepBudget.
	MaxSteps int64

	// OnStep, if non-nil, is invoked from the scheduling hot path after each
	// grant with the granted pid and the (1-based) global step count.
	// Invocations are serialized; keep the hook cheap.
	OnStep func(pid int, step int64)

	// Sink, if non-nil, receives scheduler-level accounting (sched.grant
	// counts) in the unified observability registry. Grants are counted, not
	// recorded as events — one event per atomic step would drown any trace.
	// The coroutine engine batches the counter updates (final totals are
	// exact; mid-run registry scrapes may lag by at most grantFlushBatch).
	Sink *obs.Sink

	// Rendezvous selects the per-step rendezvous engine (a dedicated
	// scheduler goroutine, two channel crossings per step) instead of the
	// coroutine engine. The two engines produce byte-identical executions —
	// identical grant sequences, step accounting, traces and decisions per
	// seed. The rendezvous engine stays as the reference implementation the
	// equivalence suites prove the coroutine engine against; it is several
	// times slower, so nothing else selects it.
	Rendezvous bool

	// Commuting selects the commuting-dispatch engine (see commute.go): each
	// adversary consult opens a batch of pairwise-commuting steps and every
	// batch member receives a quantum-bounded run before the adversary is
	// consulted again. Executions remain sequential and deterministic, and
	// every produced schedule replays byte-identically through the sequential
	// dispatcher. Ignored when Rendezvous is set.
	Commuting bool

	// CommuteQuantum caps the run length one batch member may coalesce under
	// the commuting engine; <= 0 selects defaultCommuteQuantum. Only
	// meaningful with Commuting.
	CommuteQuantum int
}

// Result reports what happened during a run.
type Result struct {
	// Steps is the total number of atomic steps granted.
	Steps int64

	// PerProc is the number of steps each process performed.
	PerProc []int64

	// WaitSteps[i] is the contention accounting for process i: the total
	// number of global steps granted to *other* processes while i was parked
	// in Step waiting for a grant. A fairly scheduled process accumulates
	// about (n-1) wait steps per own step; a starved one accumulates far
	// more. Zero in free-running mode, which has no grant queue.
	WaitSteps []int64

	// Finished reports which processes ran their body to completion. A
	// process can be unfinished if it was crashed by the adversary or if the
	// run hit the step budget.
	Finished []bool
}

// grantFlushBatch is how many sched.grant counts the coroutine engines
// accumulate locally before flushing them into the registry in one atomic
// add. Totals are exact at run end; only mid-run scrapes can lag.
const grantFlushBatch = 256

// procSlot is one process's scheduling state in the coroutine engines, padded
// to a cache line so per-proc accounting updates in concurrent batch workers
// never false-share (each instance has its own slots, but instances from
// different workers can be allocated adjacently).
type procSlot struct {
	next       func() (struct{}, bool) // resumes the process's coroutine
	stop       func()                  // tears it down: a suspended park panics haltSignal
	yield      func(struct{}) bool     // suspends it back to its resumer
	enqueuedAt int64                   // global step count when the proc last entered Step
	perProc    int64
	waitSteps  int64
	resumed    bool // on the resume chain: running, or waiting in next for a coroutine it resumed
	_          [15]byte
}

// park suspends the process until a grant resumes it. A false yield means
// the run was torn down while the process waited.
func (s *procSlot) park() {
	if !s.yield(struct{}{}) {
		panic(haltSignal{})
	}
}

// driver is the scheduling state both coroutine engines share. Every body
// runs as a coroutine (coro.go), and only one of them runs at a time: the
// token holder. Its Step consults the engine's dispatch policy inline. A
// self-pick returns at once; a cross-pick records the grantee in turn and
// passes the token on (see pass). The coroutine switches order every access,
// so no lock or atomic is needed anywhere on the step path.
type driver struct {
	n        int
	adv      Adversary
	maxSteps int64
	onStep   func(pid int, step int64)
	sink     *obs.Sink

	slots    []procSlot
	live     []int  // sorted unfinished pids == the adversary's waiting set
	isLive   []bool // isLive[pid]: O(1) validation of adversary picks
	finished []bool

	steps         int64
	grantsPending int64
	turn          int // token holder; -1 once the run is over
	err           error
	badPick       string // deferred adversary-misbehavior panic, rethrown by Run
}

// verdict is the outcome of one dispatch: who got the token.
type verdict uint8

const (
	grantedSelf  verdict = iota // caller keeps running, no switch
	grantedOther                // token handed off, caller passes it on
	haltedRun                   // run torn down during this dispatch
)

func newDriver(cfg Config, adv Adversary) driver {
	d := driver{
		n:        cfg.N,
		adv:      adv,
		maxSteps: cfg.MaxSteps,
		onStep:   cfg.OnStep,
		sink:     cfg.Sink,
		slots:    make([]procSlot, cfg.N),
		live:     make([]int, cfg.N),
		isLive:   make([]bool, cfg.N),
		finished: make([]bool, cfg.N),
		turn:     -1,
	}
	for i := range d.live {
		d.live[i] = i
		d.isLive[i] = true
	}
	return d
}

func (d *driver) now() int64 { return d.steps }

// enter queues p for its next grant. It reports whether that Step is over
// already: p's first Step only parks, because the driver issues the run's
// first dispatch once every body has arrived.
func (d *driver) enter(p *Proc) bool {
	d.slots[p.id].enqueuedAt = d.steps
	if p.steps > 0 {
		return false
	}
	d.slots[p.id].park()
	return true
}

// settle finishes pid's Step on its own dispatch's verdict.
func (d *driver) settle(pid int, v verdict) {
	switch v {
	case grantedOther:
		d.pass(pid)
	case haltedRun:
		panic(haltSignal{})
	}
}

// pass hands the token on from self (-1 for the goroutine that called Run)
// and returns once it is back. The resumed coroutines form a chain: each runs
// until it yields or returns to the one that resumed it. A suspended grantee
// is resumed directly, one coroutine switch; a grantee lower on the chain is
// reached by yielding down to it. When the run ends (turn -1), a process
// unwinds with haltSignal and the driver returns.
func (d *driver) pass(self int) {
	for d.turn != self {
		if d.turn < 0 {
			if self < 0 {
				return
			}
			panic(haltSignal{})
		}
		if d.slots[d.turn].resumed {
			d.slots[self].park()
			continue
		}
		d.resume(d.turn)
	}
}

// resume runs pid's coroutine until it yields or returns.
func (d *driver) resume(pid int) {
	s := &d.slots[pid]
	s.resumed = true
	s.next()
	s.resumed = false
}

func (d *driver) overBudget() bool { return d.maxSteps > 0 && d.steps >= d.maxSteps }

// consult asks the adversary for the next grantee. It returns -1 after
// halting the run when the adversary refuses or picks a pid not waiting.
func (d *driver) consult() int {
	pick := d.adv.Next(d.live, d.steps)
	if pick == -1 {
		d.halt(ErrStalled)
		return -1
	}
	if pick < 0 || pick >= d.n || !d.isLive[pick] {
		d.badPick = fmt.Sprintf("sched: adversary picked pid %d not in waiting set %v", pick, d.live)
		d.halt(ErrStalled)
		return -1
	}
	return pick
}

// grant charges and counts one grant to pid. self is the dispatching
// process, or -1 when the driver or a completing body dispatches.
func (d *driver) grant(pid, self int) verdict {
	s := &d.slots[pid]
	s.waitSteps += d.steps - s.enqueuedAt
	d.steps++
	s.perProc++
	if d.sink != nil {
		d.grantsPending++
		if d.grantsPending >= grantFlushBatch {
			d.flushGrants()
		}
	}
	if d.onStep != nil {
		d.onStep(pid, d.steps)
	}
	d.turn = pid
	if pid == self {
		return grantedSelf
	}
	return grantedOther
}

// halt ends the run: every process on the resume chain unwinds, and the
// driver then tears down the suspended ones.
func (d *driver) halt(err error) verdict {
	d.err = err
	d.turn = -1
	d.flushGrants()
	return haltedRun
}

// flushGrants publishes the locally batched sched.grant count.
func (d *driver) flushGrants() {
	if d.grantsPending > 0 {
		d.sink.CountN(obs.SchedGrant, d.grantsPending)
		d.grantsPending = 0
	}
}

// retire records a completed body and reports whether it must dispatch the
// next grant: it holds the token unless it finished before its first Step,
// and the run is over once every process has finished.
func (d *driver) retire(p *Proc) bool {
	d.finished[p.id] = true
	d.isLive[p.id] = false
	i := indexOf(d.live, p.id)
	d.live = append(d.live[:i], d.live[i+1:]...)
	if len(d.live) == 0 {
		d.turn = -1
	}
	return p.steps > 0 && len(d.live) > 0
}

func (d *driver) result() Result {
	res := Result{
		Steps:     d.steps,
		PerProc:   make([]int64, d.n),
		WaitSteps: make([]int64, d.n),
		Finished:  d.finished,
	}
	for i := range d.slots {
		res.PerProc[i] = d.slots[i].perProc
		res.WaitSteps[i] = d.slots[i].waitSteps
	}
	return res
}

// dispatcher is the sequential dispatch policy: one grant per adversary
// consult.
type dispatcher struct{ driver }

func (d *dispatcher) step(p *Proc) {
	if !d.enter(p) {
		d.settle(p.id, d.dispatch(p.id))
	}
}

// dispatch consults the adversary and issues one grant, reporting who got the
// token.
func (d *dispatcher) dispatch(self int) verdict {
	if d.overBudget() {
		return d.halt(ErrStepBudget)
	}
	pick := d.consult()
	if pick < 0 {
		return haltedRun
	}
	return d.grant(pick, self)
}

// Run executes body once per process under the configured adversarial
// scheduler and blocks until every process has finished, crashed, or the step
// budget is exhausted. It returns a Result together with ErrStepBudget or
// ErrStalled when the run did not complete cleanly; the Result is valid in
// all cases.
//
// Bodies run on coroutines driven from the calling goroutine (except under
// Config.Rendezvous). A body that panics ends the run: Run releases the other
// processes and re-panics the same value on the calling goroutine.
func Run(cfg Config, body func(*Proc)) (Result, error) {
	if cfg.N < 1 {
		return Result{}, fmt.Errorf("sched: invalid N=%d", cfg.N)
	}
	if cfg.Rendezvous {
		return runRendezvous(cfg, body)
	}
	adv := cfg.Adversary
	if adv == nil {
		adv = NewRoundRobin()
	}
	if cfg.Commuting {
		c := newCommuter(cfg, adv)
		return drive(c, &c.driver, cfg.Seed, body)
	}
	d := &dispatcher{newDriver(cfg, adv)}
	return drive(d, &d.driver, cfg.Seed, body)
}

// event is how process goroutines talk to the rendezvous scheduler loop.
type event struct {
	pid  int
	done bool // true: body returned (or halted); false: requesting a step
}

// runner implements gate for the rendezvous engine.
type runner struct {
	events  chan event
	grants  []chan bool     // per-pid; false grant means halt
	arrived []chan struct{} // closed at the proc's first Step (or finish without one)
	clock   atomic.Int64
}

func (r *runner) step(p *Proc) {
	if p.steps == 0 {
		// Signal arrival before blocking on the (unbuffered) event channel:
		// during serialized startup the spawner is waiting on this signal and
		// the scheduler loop is not yet consuming events.
		close(r.arrived[p.id])
	}
	r.events <- event{pid: p.id}
	if ok := <-r.grants[p.id]; !ok {
		panic(haltSignal{})
	}
}

func (r *runner) now() int64 { return r.clock.Load() }

// runRendezvous is the reference engine: a dedicated scheduler goroutine
// grants steps one event/grant rendezvous at a time, with no token, no
// coalescing and no coroutines. The engine-equivalence tests compare the
// coroutine engine against it.
func runRendezvous(cfg Config, body func(*Proc)) (Result, error) {
	adv := cfg.Adversary
	if adv == nil {
		adv = NewRoundRobin()
	}

	r := &runner{
		events:  make(chan event),
		grants:  make([]chan bool, cfg.N),
		arrived: make([]chan struct{}, cfg.N),
	}
	res := Result{
		PerProc:   make([]int64, cfg.N),
		WaitSteps: make([]int64, cfg.N),
		Finished:  make([]bool, cfg.N),
	}
	// enqueuedAt[pid] is the global step count when pid last entered the
	// waiting set; the grant charges the elapsed steps as wait time.
	enqueuedAt := make([]int64, cfg.N)

	procs := newProcs(cfg.N, cfg.Seed, r)
	defer releaseProcs(procs)

	var wg sync.WaitGroup
	for i, p := range procs {
		r.grants[i] = make(chan bool, 1)
		r.arrived[i] = make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					if _, ok := rec.(haltSignal); !ok {
						panic(rec) // real bug in the algorithm body: propagate
					}
					r.events <- event{pid: p.id, done: true}
				}
			}()
			body(p)
			if p.steps == 0 {
				// Never called Step: returning is this proc's arrival. Close
				// before the (blocking) done send so the spawner can proceed.
				close(r.arrived[p.id])
			}
			r.events <- event{pid: p.id, done: true}
		}()
		// Serialized startup, mirroring the coroutine engine: pre-Step
		// preamble code (which may emit trace events) executes in pid order,
		// keeping traces byte-deterministic. Grant order is unaffected — the
		// loop below only consults the adversary once all procs are parked.
		<-r.arrived[i]
	}

	// Scheduler loop. Invariant: inflight counts goroutines that are running
	// user code (granted, or not yet blocked for the first time). We only
	// consult the adversary when inflight == 0, i.e. every live process is
	// parked in Step, so the grant order fully determines the interleaving.
	var err error
	inflight := cfg.N
	live := cfg.N
	waiting := make([]int, 0, cfg.N)
	halted := false

	halt := func() {
		if halted {
			return
		}
		halted = true
		for _, pid := range waiting {
			r.grants[pid] <- false
		}
		inflight += len(waiting) // woken goroutines are now running their halt path
		waiting = waiting[:0]
	}

	for live > 0 {
		for inflight > 0 {
			ev := <-r.events
			if ev.done {
				live--
				inflight--
				if !halted {
					res.Finished[ev.pid] = true
				}
				continue
			}
			if halted {
				// Late Step request after halt began: refuse immediately. The
				// goroutine stays in flight; it will report done via its
				// halt-panic recovery path.
				r.grants[ev.pid] <- false
				continue
			}
			waiting = insertSorted(waiting, ev.pid)
			enqueuedAt[ev.pid] = res.Steps
			inflight--
		}
		if live == 0 {
			break
		}
		if halted {
			continue
		}
		if cfg.MaxSteps > 0 && res.Steps >= cfg.MaxSteps {
			err = ErrStepBudget
			halt()
			continue
		}
		pick := adv.Next(waiting, res.Steps)
		if pick == -1 {
			err = ErrStalled
			halt()
			continue
		}
		idx := indexOf(waiting, pick)
		if idx < 0 {
			panic(fmt.Sprintf("sched: adversary picked pid %d not in waiting set %v", pick, waiting))
		}
		waiting = append(waiting[:idx], waiting[idx+1:]...)
		res.WaitSteps[pick] += res.Steps - enqueuedAt[pick]
		res.Steps++
		res.PerProc[pick]++
		r.clock.Store(res.Steps)
		cfg.Sink.Count(obs.SchedGrant)
		if cfg.OnStep != nil {
			cfg.OnStep(pick, res.Steps)
		}
		inflight++
		r.grants[pick] <- true
	}
	wg.Wait()
	return res, err
}

// freeGate is a no-op gate for free-running (real concurrency) mode.
type freeGate struct{ clock atomic.Int64 }

func (g *freeGate) step(*Proc) { g.clock.Add(1) }
func (g *freeGate) now() int64 { return g.clock.Load() }

// RunFree executes body once per process as plain goroutines with no
// scheduling gate: processes race natively and atomicity relies on the
// register implementations. It blocks until all bodies return.
func RunFree(n int, seed int64, body func(*Proc)) Result {
	g := &freeGate{}
	procs := newProcs(n, seed, g)
	defer releaseProcs(procs)
	var wg sync.WaitGroup
	for _, p := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(p)
		}()
	}
	wg.Wait()
	res := Result{
		Steps:     g.clock.Load(),
		PerProc:   make([]int64, n),
		WaitSteps: make([]int64, n),
		Finished:  make([]bool, n),
	}
	for i, p := range procs {
		res.PerProc[i] = p.steps
		res.Finished[i] = true
	}
	return res
}

func insertSorted(s []int, v int) []int {
	i := 0
	for i < len(s) && s[i] < v {
		i++
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func indexOf(s []int, v int) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}

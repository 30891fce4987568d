package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/dsrepro/consensus"
	"github.com/dsrepro/consensus/internal/core"
)

// workload is one named benchmark shape. Every field is fixed per name, so
// a later change can cite a workload by its name alone. README.md gives the
// reason each one exists.
type workload struct {
	name string
	alg  consensus.Algorithm
	kind core.Kind
	n    int
	// batch is the instances per SolveBatch call; 0 issues unpooled Solve
	// calls. README.md gives where each size comes from.
	batch     int
	commuting bool // Config.ParallelDispatch
	native    bool // NativeSubstrate instead of the simulated scheduler
	warmup    int  // instances each set-up runs before timing starts
	// tail is the percentile latency_tail_ms reports, fixed per workload so
	// that its meaning does not change between runs. It is p99, which has
	// at least twenty instances beyond it in a run of BENCHMARK.json's
	// run_seconds, except on the native substrate, whose per-instance p99
	// follows the host's descheduling of single goroutines (README.md).
	tail float64
	// byHand keeps a workload out of BENCHMARK.json: it runs by name, but
	// its timings follow the host more than the program (README.md).
	byHand bool
}

var workloads = []workload{
	{name: "solve-anon-n4", alg: consensus.Anonymous, kind: core.KindAnonymous, n: 4, warmup: 1000, tail: 99},
	{name: "batch-bounded-n5", alg: consensus.Bounded, kind: core.KindBounded, n: 5, batch: 16, warmup: 16, tail: 99},
	{name: "batch-commuting-n9", alg: consensus.Bounded, kind: core.KindBounded, n: 9, batch: 8, commuting: true, warmup: 8, tail: 99},
	{name: "batch-native-n4", alg: consensus.Bounded, kind: core.KindBounded, n: 4, batch: 400, native: true, warmup: 800, tail: 90, byHand: true},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// config is the per-instance template: the random adversary, the workload's
// dispatch mode and substrate, and the conformance step budget. A budget
// trip is a failure; the budget is never raised to avoid one.
func (w workload) config() consensus.Config {
	c := consensus.Config{
		Algorithm:        w.alg,
		Schedule:         consensus.Schedule{Kind: consensus.RandomSchedule},
		ParallelDispatch: w.commuting,
		MaxSteps:         core.StepBudget(w.kind, w.n),
	}
	if w.native {
		c.Substrate = consensus.NativeSubstrate
	}
	return c
}

// poolSize is how many input vectors a set-up generates; instance i takes
// vector i mod poolSize, and its own seed, so no two instances repeat a run.
const poolSize = 1024

// inputPool generates the input bit-vectors of n processes from seed. One
// vector in sixteen is unanimous, with a fair random value, so the validity
// check runs on every workload; in the rest each process flips its own fair
// coin. Unanimous instances decide in a few rounds, so a larger share would
// widen the gap below the long workloads' median latency and make it vary
// more from seed to seed.
func inputPool(seed int64, n int) [][]int {
	rng := rand.New(rand.NewSource(seed))
	pool := make([][]int, poolSize)
	for i := range pool {
		in := make([]int, n)
		unanimous, v := rng.Intn(16) == 0, rng.Intn(2)
		for j := range in {
			if unanimous {
				in[j] = v
			} else {
				in[j] = rng.Intn(2)
			}
		}
		pool[i] = in
	}
	return pool
}

// failClass names why an instance counts as failed.
type failClass int

const (
	failNone failClass = iota
	failBudget
	failStall
	failAgreement
	failValidity
	failUndecided
	failOther
	numFailClasses
)

var failNames = [numFailClasses]string{"ok", "budget", "stall", "agreement", "validity", "undecided", "other"}

// outcome is what the public API reported for one instance.
type outcome struct {
	inputs []int
	value  int // the agreed value, -1 when none
	// decided and values are each process's outcome. SolveBatch does not
	// expose them, so they are nil for batch instances: SolveBatch checks
	// their per-process agreement itself and reports a split as an error,
	// and the runner checks their termination per call from the registry's
	// core.decide count.
	decided []bool
	values  []int
	err     error
}

// classify is the benchmark's own correctness check: every process decided
// the agreed value, which is 0 or 1, and equals the common input when the
// inputs are unanimous.
func classify(o outcome) failClass {
	switch {
	case errors.Is(o.err, consensus.ErrStepBudget):
		return failBudget
	case errors.Is(o.err, consensus.ErrStalled):
		return failStall
	case o.err != nil && strings.Contains(o.err.Error(), "consistency violated"):
		return failAgreement
	case o.err != nil:
		return failOther
	case o.value != 0 && o.value != 1:
		return failAgreement
	}
	for i := range o.values {
		switch {
		case !o.decided[i]:
			return failUndecided
		case o.values[i] != o.value:
			return failAgreement
		}
	}
	for _, v := range o.inputs {
		if v != o.inputs[0] {
			return failNone
		}
	}
	if o.value != o.inputs[0] {
		return failValidity
	}
	return failNone
}

// tally is what one phase of a run measured.
type tally struct {
	attempted int
	failed    [numFailClasses]int
	// instNS holds each instance's latency on the process CPU clock (see
	// cpuNow): a Solve call timed by the runner, or an entry of
	// BatchResult.Latencies moved onto the CPU clock by its call's CPU/wall
	// ratio. instWallNS holds the same latencies on the wall clock.
	instNS     []int64
	instWallNS []int64
	// steps and stepLatNS pair the atomic steps and CPU-clock latency of
	// each decided instance; a failed one reports partial steps or none.
	steps     []int64
	stepLatNS []int64
	counters  map[string]int64
	cpuNS     int64 // the phase on the CPU clock
	wallNS    int64
	allocB    uint64
	// solveOverheadNS holds Solve wall time minus Result.LatencyNS per call
	// when Config.Latency is on; batchOverheadNS holds SolveBatch wall time
	// minus the sum of its Latencies per call.
	solveOverheadNS []int64
	batchOverheadNS []int64
}

// add tallies one instance with its latency on the CPU clock and on the
// wall clock, and returns its class.
func (t *tally) add(o outcome, latNS, wallNS, steps int64) failClass {
	t.attempted++
	c := classify(o)
	t.failed[c]++
	t.instNS = append(t.instNS, latNS)
	t.instWallNS = append(t.instWallNS, wallNS)
	if c == failNone {
		t.steps = append(t.steps, steps)
		t.stepLatNS = append(t.stepLatNS, latNS)
	}
	return c
}

// merge adds the tally of a later segment of the same phase.
func (t *tally) merge(u *tally) {
	t.attempted += u.attempted
	for c := range t.failed {
		t.failed[c] += u.failed[c]
	}
	t.instNS = append(t.instNS, u.instNS...)
	t.instWallNS = append(t.instWallNS, u.instWallNS...)
	t.steps = append(t.steps, u.steps...)
	t.stepLatNS = append(t.stepLatNS, u.stepLatNS...)
	t.addCounters(u.counters)
	t.cpuNS += u.cpuNS
	t.wallNS += u.wallNS
	t.allocB += u.allocB
	t.solveOverheadNS = append(t.solveOverheadNS, u.solveOverheadNS...)
	t.batchOverheadNS = append(t.batchOverheadNS, u.batchOverheadNS...)
}

func (t *tally) addCounters(m map[string]int64) {
	for k, v := range m {
		t.counters[k] += v
	}
}

// failures counts every failed instance; incorrect counts those whose
// outputs were wrong rather than missing for a budget trip or a stall.
func (t *tally) failures() int {
	n := 0
	for c := failBudget; c < numFailClasses; c++ {
		n += t.failed[c]
	}
	return n
}

func (t *tally) incorrect() int {
	return t.failed[failAgreement] + t.failed[failValidity] + t.failed[failUndecided] + t.failed[failOther]
}

func (t *tally) decided() int { return t.attempted - t.failures() }

// ok reports whether a phase passes the check. Any failure fails a
// simulated workload, so its failed_frac is held at 0: a budget trip or a
// stall there is a change in the program, not noise. On the native
// substrate a budget trip or a stall is counted but only a wrong output
// fails the run; README.md records the native defect behind this.
func (t *tally) ok(w workload) bool {
	if w.native {
		return t.incorrect() == 0
	}
	return t.failures() == 0
}

func (t *tally) failureSummary() string {
	parts := make([]string, 0, numFailClasses-1)
	for c := failBudget; c < numFailClasses; c++ {
		parts = append(parts, fmt.Sprintf("%s %d", failNames[c], t.failed[c]))
	}
	return strings.Join(parts, ", ")
}

// runner drives one workload as a closed loop with one client: the next call
// is issued only after the previous one returned.
type runner struct {
	w     workload
	seed  int64
	base  consensus.Config
	pool  [][]int
	next  int      // index of the next Solve call or SolveBatch call
	spans *spanLog // nil when tracing is off
	root  int32    // parent span of the calls
}

func newRunner(w workload, seed int64) *runner {
	return &runner{w: w, seed: seed, base: w.config(), pool: inputPool(seed, w.n)}
}

// run issues calls until d has elapsed or, when instances > 0, until that
// many instances ran. A configuration error aborts the run; per-instance
// failures are tallied.
func (r *runner) run(d time.Duration, instances int) (*tally, error) {
	t := &tally{counters: make(map[string]int64)}
	cpu0, start := cpuNow(), time.Now()
	done := func() bool {
		if instances > 0 {
			return t.attempted >= instances
		}
		return time.Since(start) >= d
	}
	for !done() {
		if r.w.batch == 0 {
			r.solve(t)
			continue
		}
		size := r.w.batch
		if instances > 0 && instances-t.attempted < size {
			size = instances - t.attempted
		}
		if err := r.solveBatch(t, size); err != nil {
			return nil, err
		}
	}
	t.cpuNS, t.wallNS = cpuNow()-cpu0, time.Since(start).Nanoseconds()
	return t, nil
}

// solve issues one Solve call. Every error it returns is an instance
// failure: the workload configurations are fixed and valid, so an error
// outside the known classes is tallied as "other" and fails the run.
func (r *runner) solve(t *tally) {
	i := r.next
	r.next++
	cfg := r.base
	cfg.Inputs = r.pool[i%len(r.pool)]
	cfg.Seed = consensus.InstanceSeed(r.seed, i)
	sp := r.spans.begin("consensus.Solve", r.root, int64(i))
	cpu0, start := cpuNow(), time.Now()
	res, err := consensus.Solve(cfg)
	cpu, wall := cpuNow()-cpu0, time.Since(start).Nanoseconds()
	r.spans.end(sp)
	t.add(outcome{inputs: cfg.Inputs, value: res.Value, decided: res.Decided, values: res.Values, err: err}, cpu, wall, res.Steps)
	t.addCounters(res.Counters)
	if cfg.Latency && err == nil {
		t.solveOverheadNS = append(t.solveOverheadNS, wall-res.LatencyNS)
	}
}

func (r *runner) solveBatch(t *tally, size int) error {
	b := r.next
	r.next++
	first := b * r.w.batch
	bc := consensus.BatchConfig{
		Instances: size,
		Base:      r.base,
		Seed:      consensus.InstanceSeed(r.seed, b),
		Parallel:  1,
		PerInstance: func(k int, c *consensus.Config) {
			c.Inputs = r.pool[(first+k)%len(r.pool)]
		},
	}
	sp := r.spans.begin("consensus.SolveBatch", r.root, int64(b))
	cpu0, start := cpuNow(), time.Now()
	res, err := consensus.SolveBatch(bc)
	cpu, wall := cpuNow()-cpu0, time.Since(start).Nanoseconds()
	r.spans.end(sp)
	if err != nil {
		return fmt.Errorf("batch %d: %w", b, err)
	}
	// SolveBatch reports wall-clock latencies only, so each is moved onto
	// the CPU clock by its call's CPU/wall ratio, which takes out the
	// call's share of time stolen from the process.
	ratio := float64(cpu) / float64(wall)
	var inside int64
	clean, passed := true, 0
	for k := 0; k < size; k++ {
		in := r.pool[(first+k)%len(r.pool)]
		lat := res.Latencies[k]
		if t.add(outcome{inputs: in, value: res.Decisions[k], err: res.Errors[k]}, int64(float64(lat)*ratio), lat, res.Steps[k]) == failNone {
			passed++
		}
		inside += lat
		clean = clean && res.Errors[k] == nil
	}
	// Every process of every instance decides once. A call whose instances
	// all returned without error but fewer decisions were counted had a
	// process that never decided; the registry cannot say which instance,
	// so one instance of the call is moved to the undecided class. A call
	// with an error is already failed, and its partial counts say nothing.
	if clean && passed > 0 && res.Counters["core.decide"] != int64(size*r.w.n) {
		t.failed[failNone]--
		t.failed[failUndecided]++
	}
	t.addCounters(res.Counters)
	t.batchOverheadNS = append(t.batchOverheadNS, wall-inside)
	return nil
}

package main

import (
	"math/rand"
	"time"

	"github.com/dsrepro/consensus"
	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/register"
	"github.com/dsrepro/consensus/internal/scan"
	"github.com/dsrepro/consensus/internal/sched"
	"github.com/dsrepro/consensus/internal/strip"
	"github.com/dsrepro/consensus/internal/walk"
)

// Work per process in one scheduled probe run, sized so a run is long
// against its fixed cost but short against a probe's time slice.
const (
	grantsPerProc = 512
	opsPerProc    = 256
	scansPerProc  = 8
	stripK        = 2 // core's default rounds-strip constant
	coinB         = 4 // core's default shared-coin barrier multiplier
)

// prober times calls into one layer's public functions from outside the
// protocols, at the workload's n, adversary, dispatch mode and substrate.
// Each probe repeats its call for one time slice under a root span.
type prober struct {
	w     workload
	seed  int64
	slice time.Duration
	spans *spanLog
	out   map[string]float64
	// fixedNS is the substrate's cost per run with empty bodies; the other
	// scheduled probes subtract it.
	fixedNS float64
}

// run executes body once per process on the workload's substrate.
func (pr *prober) run(i int, body func(*sched.Proc)) (sched.Result, error) {
	cfg := sched.Config{N: pr.w.n, Seed: consensus.InstanceSeed(pr.seed, i), Commuting: pr.w.commuting}
	if pr.w.native {
		return sched.NewNative(sched.NativeOptions{}).Run(cfg, body)
	}
	cfg.Adversary = sched.NewRandom(cfg.Seed)
	return sched.Run(cfg, body)
}

// repeat calls f(i) for i = 0, 1, ... until the slice of wall time has
// elapsed, at least once, with one span per perSpan calls. It returns the
// calls made and the time they took on the process CPU clock.
func (pr *prober) repeat(name string, perSpan int, f func(i int) error) (calls int, ns float64, err error) {
	root := pr.spans.begin("probe."+name, 0, 0)
	defer pr.spans.end(root)
	cpu0, start := cpuNow(), time.Now()
	for calls == 0 || time.Since(start) < pr.slice {
		sp := pr.spans.begin(name, root, int64(calls))
		for k := 0; k < perSpan; k++ {
			if err := f(calls); err != nil {
				return 0, 0, err
			}
			calls++
		}
		pr.spans.end(sp)
	}
	return calls, float64(cpuNow() - cpu0), nil
}

// probeAll runs every layer probe and records its metrics in pr.out.
func (pr *prober) probeAll() error {
	for _, probe := range []func() error{pr.sched, pr.register, pr.scan, pr.walk, pr.strip, pr.obs} {
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

// sched measures the substrate's fixed cost per run with empty bodies, and
// its cost per grant, net of that fixed cost, with bodies that only Step.
// Each process declares a private footprint, so under commuting dispatch the
// steps batch.
func (pr *prober) sched() error {
	calls, ns, err := pr.repeat("sched.Run", 1, func(i int) error {
		_, err := pr.run(i, func(*sched.Proc) {})
		return err
	})
	if err != nil {
		return err
	}
	pr.fixedNS = ns / float64(calls)
	pr.out["sched.run_fixed_us"] = pr.fixedNS / 1e3

	keys := footprints(pr.w.n)
	var steps int64
	calls, ns, err = pr.repeat("sched.Step", 1, func(i int) error {
		res, err := pr.run(i, func(p *sched.Proc) {
			for s := 0; s < grantsPerProc; s++ {
				p.DeclareWrite(keys[p.ID()])
				p.Step()
			}
		})
		steps += res.Steps
		return err
	})
	if err != nil {
		return err
	}
	pr.out["sched.ns_per_grant"] = (ns - float64(calls)*pr.fixedNS) / float64(steps)
	return nil
}

func footprints(n int) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = sched.NewFootprintKey()
	}
	return keys
}

// register measures one read or write of the register type the workload's
// protocol is built on: pid-owned SWMR registers for the bounded protocol,
// anonymous multi-writer registers for the anonymous one. Half the ops are
// writes; each op is one scheduler grant, net of the run's fixed cost.
func (pr *prober) register() error {
	n := pr.w.n
	var op func(p *sched.Proc, s int)
	if pr.w.alg == consensus.Anonymous {
		regs := make([]*register.DirectMRMW[int8], n)
		for i := range regs {
			regs[i] = register.NewDirectMRMW(int8(0), pr.w.native)
		}
		op = func(p *sched.Proc, s int) {
			if s%2 == 0 {
				regs[s/2%n].Write(p, int8(s))
			} else {
				_ = regs[(s/2+1)%n].Read(p)
			}
		}
	} else {
		regs := make([]*register.SWMR[int64], n)
		for i := range regs {
			regs[i] = register.NewSWMR(i, int64(0))
			regs[i].SetNative(pr.w.native)
		}
		op = func(p *sched.Proc, s int) {
			if s%2 == 0 {
				regs[p.ID()].Write(p, int64(s))
			} else {
				_ = regs[(p.ID()+s)%n].Read(p)
			}
		}
	}
	calls, ns, err := pr.repeat("register.op", 1, func(i int) error {
		_, err := pr.run(i, func(p *sched.Proc) {
			for s := 0; s < opsPerProc; s++ {
				op(p, s)
			}
		})
		return err
	})
	if err != nil {
		return err
	}
	ops := float64(calls * n * opsPerProc)
	pr.out["register.ns_per_op"] = (ns - float64(calls)*pr.fixedNS) / ops
	return nil
}

// scan measures the paper's Arrow scannable memory with interleaved
// writers: each process alternates a Write and a Scan, the protocols'
// pattern. A Scan is charged its share of the run's time by steps, since
// under the scheduler its steps interleave with the other processes'.
func (pr *prober) scan() error {
	n := pr.w.n
	mem := scan.NewArrow[int64](n, register.DirectFactory)
	mem.SetEpoch(pr.w.commuting) // core enables the epoch retry path with commuting dispatch
	mem.SetNative(pr.w.native)
	scanSteps := make([]int64, n)
	var totalSteps int64
	calls, ns, err := pr.repeat("scan.Scan", 1, func(i int) error {
		res, err := pr.run(i, func(p *sched.Proc) {
			for s := 0; s < scansPerProc; s++ {
				mem.Write(p, int64(s))
				before := p.Steps()
				_ = mem.Scan(p)
				scanSteps[p.ID()] += p.Steps() - before
			}
		})
		totalSteps += res.Steps
		return err
	})
	if err != nil {
		return err
	}
	var steps int64
	for _, s := range scanSteps {
		steps += s
	}
	scans := float64(calls * n * scansPerProc)
	net := ns - float64(calls)*pr.fixedNS
	pr.out["scan.ns_per_scan"] = net * float64(steps) / float64(totalSteps) / scans
	pr.out["scan.steps_per_scan"] = float64(steps) / scans
	return nil
}

// walk measures one Flip of the bounded weak shared coin per process, on a
// coin reset between runs as the pooled protocols reset theirs.
func (pr *prober) walk() error {
	params := walk.Params{N: pr.w.n, B: coinB}
	params.M = params.DefaultM()
	coin, err := walk.NewSharedCoin(params)
	if err != nil {
		return err
	}
	coin.SetNative(pr.w.native)
	var steps int64
	calls, ns, err := pr.repeat("walk.Flip", 1, func(i int) error {
		coin.Reset()
		res, err := pr.run(i, func(p *sched.Proc) { coin.Flip(p) })
		steps += res.Steps
		return err
	})
	if err != nil {
		return err
	}
	flips := float64(calls * pr.w.n)
	pr.out["walk.ns_per_flip"] = (ns - float64(calls)*pr.fixedNS) / flips
	pr.out["walk.steps_per_flip"] = float64(steps) / flips
	return nil
}

// strip measures decoding the rounds strip from counter matrices reached by
// a random sequence of IncRow moves, through one scratch graph as the
// protocol decodes them.
func (pr *prober) strip() error {
	n := pr.w.n
	rng := rand.New(rand.NewSource(pr.seed))
	e := strip.CounterMatrix(n)
	mats := make([][][]int, 256)
	for m := range mats {
		i := rng.Intn(n)
		row, err := strip.IncRow(i, e, stripK)
		if err != nil {
			return err
		}
		e[i] = row
		mats[m] = make([][]int, n)
		for j := range e {
			mats[m][j] = append([]int(nil), e[j]...)
		}
	}
	var g *strip.Graph
	calls, ns, err := pr.repeat("strip.DecodeInto", 1024, func(i int) (err error) {
		g, err = strip.DecodeInto(g, mats[i%len(mats)], stripK)
		return err
	})
	if err != nil {
		return err
	}
	pr.out["strip.ns_per_decode"] = ns / float64(calls)
	return nil
}

// obs measures the per-Solve metrics sink: building it and snapshotting its
// registry, as Solve does once per call.
func (pr *prober) obs() error {
	calls, ns, err := pr.repeat("obs.NewSink", 256, func(int) error {
		_ = obs.NewSink(obs.Tee()).Registry().Snapshot()
		return nil
	})
	if err != nil {
		return err
	}
	pr.out["obs.ns_per_sink"] = ns / float64(calls)
	return nil
}

// apiOverhead measures the API path the workload does not take: Solve calls
// with Config.Latency on for a batch workload, SolveBatch calls for a Solve
// workload. It returns the tally for the caller to check.
func (pr *prober) apiOverhead(r *runner) (*tally, error) {
	probe := *r
	probe.next = 0
	probe.root = pr.spans.begin("probe.api", 0, 0)
	defer pr.spans.end(probe.root)
	probe.base.Latency = true
	if r.w.batch == 0 {
		probe.w.batch = 64
	} else {
		probe.w.batch = 0
	}
	t, err := probe.run(pr.slice, 0)
	if err != nil {
		return nil, err
	}
	if r.w.batch == 0 {
		pr.out["consensus.batch_overhead_ms"] = float64(median(t.batchOverheadNS)) / 1e6
	} else {
		pr.out["consensus.solve_overhead_us"] = float64(median(t.solveOverheadNS)) / 1e3
	}
	return t, nil
}

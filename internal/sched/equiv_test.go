package sched

import (
	"fmt"
	"testing"

	"github.com/dsrepro/consensus/internal/obs"
)

// The tests in this file prove the coroutine engine and the rendezvous
// reference engine produce byte-identical executions: the same grant
// sequence (pid, step) pairs, the same Result accounting, the same error, and
// the same sched.grant totals, across a sweep of seeds, adversaries and
// process bodies. Adversaries are stateful, so each engine run constructs a
// fresh one from the same parameters.

// grantRec is one scheduler grant as observed through Config.OnStep.
type grantRec struct {
	pid  int
	step int64
}

// engineRun executes body under one engine and captures everything
// observable: the grant sequence, the Result, the error and the grant count.
func engineRun(t *testing.T, cfg Config, body func(*Proc)) (grants []grantRec, res Result, err error, grantCount int64) {
	t.Helper()
	sink := obs.NewSink(nil)
	cfg.Sink = sink
	cfg.OnStep = func(pid int, step int64) {
		grants = append(grants, grantRec{pid: pid, step: step})
	}
	res, err = Run(cfg, body)
	return grants, res, err, sink.Registry().KindCount(obs.SchedGrant)
}

// assertEnginesAgree runs the same configuration under both engines and
// fails on any observable divergence.
func assertEnginesAgree(t *testing.T, mk func() Config, body func(*Proc)) {
	t.Helper()
	oldCfg := mk()
	oldCfg.Rendezvous = true
	oldGrants, oldRes, oldErr, oldCount := engineRun(t, oldCfg, body)

	newCfg := mk()
	newGrants, newRes, newErr, newCount := engineRun(t, newCfg, body)

	if len(oldGrants) != len(newGrants) {
		t.Fatalf("grant sequence length: rendezvous=%d dispatch=%d", len(oldGrants), len(newGrants))
	}
	for i := range oldGrants {
		if oldGrants[i] != newGrants[i] {
			t.Fatalf("grant %d diverges: rendezvous=%+v dispatch=%+v", i, oldGrants[i], newGrants[i])
		}
	}
	if oldErr != newErr {
		t.Fatalf("error: rendezvous=%v dispatch=%v", oldErr, newErr)
	}
	if oldRes.Steps != newRes.Steps {
		t.Fatalf("Steps: rendezvous=%d dispatch=%d", oldRes.Steps, newRes.Steps)
	}
	if oldCount != newCount {
		t.Fatalf("sched.grant count: rendezvous=%d dispatch=%d", oldCount, newCount)
	}
	for i := range oldRes.PerProc {
		if oldRes.PerProc[i] != newRes.PerProc[i] {
			t.Fatalf("PerProc[%d]: rendezvous=%d dispatch=%d", i, oldRes.PerProc[i], newRes.PerProc[i])
		}
		if oldRes.WaitSteps[i] != newRes.WaitSteps[i] {
			t.Fatalf("WaitSteps[%d]: rendezvous=%d dispatch=%d", i, oldRes.WaitSteps[i], newRes.WaitSteps[i])
		}
		if oldRes.Finished[i] != newRes.Finished[i] {
			t.Fatalf("Finished[%d]: rendezvous=%v dispatch=%v", i, oldRes.Finished[i], newRes.Finished[i])
		}
	}
}

// equivBodies are process bodies covering the interesting completion shapes:
// uniform work, skewed work, RNG-dependent work, and an immediate return that
// exercises the finished-before-first-Step path.
var equivBodies = []struct {
	name string
	body func(*Proc)
}{
	{"uniform", func(p *Proc) {
		for i := 0; i < 120; i++ {
			p.Step()
		}
	}},
	{"skewed", func(p *Proc) {
		for i := 0; i < 30*(p.ID()+1); i++ {
			p.Step()
		}
	}},
	{"rng", func(p *Proc) {
		for i := 0; i < 60+p.Rand().Intn(80); i++ {
			p.Step()
		}
	}},
	{"early-exit", func(p *Proc) {
		if p.ID() == 0 {
			return // finishes without ever stepping
		}
		for i := 0; i < 90; i++ {
			p.Step()
		}
	}},
}

// equivAdversaries constructs each adversary family fresh per run.
var equivAdversaries = []struct {
	name string
	mk   func(n int, seed int64) Adversary
}{
	{"round-robin", func(n int, seed int64) Adversary { return NewRoundRobin() }},
	{"random", func(n int, seed int64) Adversary { return NewRandom(seed) }},
	{"lagger", func(n int, seed int64) Adversary { return NewLagger(1, 3, seed) }},
	{"quantum", func(n int, seed int64) Adversary { return NewQuantum(7) }},
	{"pct", func(n int, seed int64) Adversary { return NewPCT(n, 2000, 3, seed) }},
	{"crash", func(n int, seed int64) Adversary {
		return NewCrash(NewRandom(seed), map[int]int64{0: 40})
	}},
}

func TestEnginesByteIdenticalAcrossSweep(t *testing.T) {
	for _, n := range []int{1, 3, 4, 8} {
		for _, adv := range equivAdversaries {
			for _, b := range equivBodies {
				for seed := int64(1); seed <= 5; seed++ {
					n, adv, b, seed := n, adv, b, seed
					name := fmt.Sprintf("n=%d/%s/%s/seed=%d", n, adv.name, b.name, seed)
					t.Run(name, func(t *testing.T) {
						assertEnginesAgree(t, func() Config {
							return Config{N: n, Seed: seed, Adversary: adv.mk(n, seed)}
						}, b.body)
					})
				}
			}
		}
	}
}

func TestEnginesAgreeOnStepBudget(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			assertEnginesAgree(t, func() Config {
				return Config{N: 4, Seed: seed, Adversary: NewRandom(seed), MaxSteps: 123}
			}, func(p *Proc) {
				for i := 0; i < 1000; i++ {
					p.Step()
				}
			})
		})
	}
}

func TestEnginesAgreeOnStall(t *testing.T) {
	// Crash every process mid-run: the adversary eventually returns -1 and
	// both engines must stall identically, with the same survivors.
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			assertEnginesAgree(t, func() Config {
				crash := NewCrash(NewRandom(seed), map[int]int64{0: 30, 1: 60, 2: 90, 3: 120})
				return Config{N: 4, Seed: seed, Adversary: crash}
			}, func(p *Proc) {
				for i := 0; i < 500; i++ {
					p.Step()
				}
			})
		})
	}
}

func TestDispatchEngineCoalescesWithoutParking(t *testing.T) {
	// A quantum adversary grants runs of steps to one process; the coroutine
	// engine must execute those runs via self-picks, plain returns from Step
	// with no coroutine switch. The engine sweep above proves the schedule
	// equivalent; here we pin the run structure that lets every grant after a
	// block's first skip the switch: with quantum q, grants come in blocks
	// of q.
	const q = 5
	var grants []grantRec
	_, err := Run(Config{
		N:         3,
		Adversary: NewQuantum(q),
		OnStep: func(pid int, step int64) {
			grants = append(grants, grantRec{pid, step})
		},
	}, func(p *Proc) {
		for i := 0; i < 20; i++ {
			p.Step()
		}
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	for i := 0; i+q <= len(grants); i += q {
		for j := 1; j < q; j++ {
			if grants[i+j].pid != grants[i].pid {
				t.Fatalf("grant block at %d not coalesced: %v", i, grants[i:i+q])
			}
		}
	}
}

// benchBody spins a fixed number of steps per process — the pure scheduler
// overhead benchmark, no algorithm work at all.
func benchBody(steps int) func(*Proc) {
	return func(p *Proc) {
		for i := 0; i < steps; i++ {
			p.Step()
		}
	}
}

const benchN, benchSteps = 4, 1000

// benchEngine runs body under the engine that mode selects (its Rendezvous
// and Commuting fields), one seed per iteration.
func benchEngine(b *testing.B, mode Config, adv func(n int, seed int64) Adversary, body func(*Proc)) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		cfg := mode
		cfg.N, cfg.Seed, cfg.Adversary = benchN, seed, adv(benchN, seed)
		if _, err := Run(cfg, body); err != nil {
			b.Fatalf("run failed: %v", err)
		}
	}
	b.SetBytes(0)
	b.ReportMetric(float64(b.N)*float64(benchN*benchSteps)/b.Elapsed().Seconds(), "steps/s")
}

func benchRoundRobin(int, int64) Adversary    { return NewRoundRobin() }
func benchRandom(_ int, seed int64) Adversary { return NewRandom(seed) }
func benchQuantum(int, int64) Adversary       { return NewQuantum(8) }

func BenchmarkDispatchRoundRobin(b *testing.B) {
	benchEngine(b, Config{}, benchRoundRobin, benchBody(benchSteps))
}

func BenchmarkRendezvousRoundRobin(b *testing.B) {
	benchEngine(b, Config{Rendezvous: true}, benchRoundRobin, benchBody(benchSteps))
}

func BenchmarkDispatchRandom(b *testing.B) {
	benchEngine(b, Config{}, benchRandom, benchBody(benchSteps))
}

func BenchmarkRendezvousRandom(b *testing.B) {
	benchEngine(b, Config{Rendezvous: true}, benchRandom, benchBody(benchSteps))
}

func BenchmarkDispatchQuantum(b *testing.B) {
	benchEngine(b, Config{}, benchQuantum, benchBody(benchSteps))
}

func BenchmarkRendezvousQuantum(b *testing.B) {
	benchEngine(b, Config{Rendezvous: true}, benchQuantum, benchBody(benchSteps))
}

// BenchmarkCommutingRandom runs the commuting dispatcher with every process
// declaring a write to its own register, so all four steps commute and the
// random adversary's picks open batches of the whole waiting set.
func BenchmarkCommutingRandom(b *testing.B) {
	var keys [benchN]int64
	for i := range keys {
		keys[i] = NewFootprintKey()
	}
	benchEngine(b, Config{Commuting: true}, benchRandom, func(p *Proc) {
		for i := 0; i < benchSteps; i++ {
			p.DeclareWrite(keys[p.ID()])
			p.Step()
		}
	})
}

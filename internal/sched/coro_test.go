package sched

import (
	"reflect"
	"runtime"
	"testing"
	"time"
)

// bodyFault is the panic value of a body with a bug in it.
type bodyFault struct{ pid int }

// stepLoop is a body that takes k steps.
func stepLoop(k int) func(*Proc) {
	return func(p *Proc) {
		for i := 0; i < k; i++ {
			p.Step()
		}
	}
}

// plain hides an adversary's Extender, so the commuting engine degrades to
// the sequential schedule and both coroutine engines must match the
// rendezvous engine grant for grant.
func plain(a Adversary) Adversary { return FuncAdversary(a.Next) }

// teardownCases are the ways a coroutine-driven run can end besides every
// body finishing after a first dispatch.
var teardownCases = []struct {
	name      string
	n         int
	maxSteps  int64
	adv       func(seed int64) Adversary
	body      func(*Proc)
	wantErr   error
	wantPanic any // non-nil: Run must panic with exactly this value
}{
	{
		name: "step-budget", n: 4, maxSteps: 123,
		adv:     func(seed int64) Adversary { return plain(NewRandom(seed)) },
		body:    stepLoop(1000),
		wantErr: ErrStepBudget,
	},
	{
		name: "crash-all-stall", n: 4,
		adv: func(seed int64) Adversary {
			return plain(NewCrash(NewRandom(seed), map[int]int64{0: 30, 1: 60, 2: 90, 3: 120}))
		},
		body:    stepLoop(500),
		wantErr: ErrStalled,
	},
	{
		name: "bad-pick", n: 2,
		adv:       func(int64) Adversary { return FuncAdversary(func([]int, int64) int { return 99 }) },
		body:      stepLoop(1),
		wantPanic: "sched: adversary picked pid 99 not in waiting set [0 1]",
	},
	{
		name: "return-before-first-step", n: 3,
		adv: func(seed int64) Adversary { return plain(NewRandom(seed)) },
		body: func(p *Proc) {
			if p.ID() != 1 {
				stepLoop(50)(p)
			}
		},
	},
	{
		name: "all-return-before-first-step", n: 3,
		adv:  func(seed int64) Adversary { return plain(NewRandom(seed)) },
		body: func(*Proc) {},
	},
	{
		name: "n=1", n: 1,
		adv:  func(seed int64) Adversary { return plain(NewRandom(seed)) },
		body: stepLoop(40),
	},
	{
		name: "body-panic", n: 3,
		adv: func(seed int64) Adversary { return plain(NewRandom(seed)) },
		body: func(p *Proc) {
			stepLoop(10)(p)
			if p.ID() == 2 {
				panic(bodyFault{p.ID()})
			}
			stepLoop(100)(p)
		},
		wantPanic: bodyFault{2},
	},
	{
		name: "body-panic-before-first-step", n: 3,
		adv: func(seed int64) Adversary { return plain(NewRandom(seed)) },
		body: func(p *Proc) {
			if p.ID() == 1 {
				panic(bodyFault{p.ID()}) // pid 2's coroutine has not started yet
			}
			stepLoop(10)(p)
		},
		wantPanic: bodyFault{1},
	},
}

var coroEngines = []struct {
	name      string
	commuting bool
}{{"sequential", false}, {"commuting", true}}

// runRecover calls Run and returns whatever it panicked with.
func runRecover(cfg Config, body func(*Proc)) (res Result, rec any, err error) {
	defer func() { rec = recover() }()
	res, err = Run(cfg, body)
	return res, nil, err
}

func TestCoroutineTeardown(t *testing.T) {
	const seed = 7
	for _, tc := range teardownCases {
		for _, eng := range coroEngines {
			t.Run(tc.name+"/"+eng.name, func(t *testing.T) {
				mk := func() Config {
					return Config{N: tc.n, Seed: seed, MaxSteps: tc.maxSteps, Adversary: tc.adv(seed), Commuting: eng.commuting}
				}
				res, rec, err := runRecover(mk(), tc.body)
				if rec != tc.wantPanic {
					t.Fatalf("panic = %#v, want %#v", rec, tc.wantPanic)
				}
				if tc.wantPanic != nil {
					return // the rendezvous engine leaks its parked goroutines on a panic
				}
				ref := mk()
				ref.Rendezvous = true
				wantRes, wantErr := Run(ref, tc.body)
				if err != tc.wantErr || wantErr != tc.wantErr {
					t.Fatalf("error = %v, rendezvous %v, want %v", err, wantErr, tc.wantErr)
				}
				if !reflect.DeepEqual(res, wantRes) {
					t.Fatalf("result = %+v, rendezvous %+v", res, wantRes)
				}
			})
		}
	}
}

// TestCoroutineTeardownReleasesEveryProcess checks that halted runs leave no
// suspended coroutine behind: each live coroutine counts as a goroutine.
func TestCoroutineTeardownReleasesEveryProcess(t *testing.T) {
	var halting []int
	for i, tc := range teardownCases {
		if tc.wantErr != nil || tc.wantPanic != nil {
			halting = append(halting, i)
		}
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		tc := teardownCases[halting[i%len(halting)]]
		commuting := i/len(halting)%2 == 1 // every case on both engines
		cfg := Config{N: tc.n, Seed: int64(i), MaxSteps: tc.maxSteps, Adversary: tc.adv(int64(i)), Commuting: commuting}
		if _, rec, _ := runRecover(cfg, tc.body); rec != tc.wantPanic {
			t.Fatalf("run %d (%s): panic = %#v, want %#v", i, tc.name, rec, tc.wantPanic)
		}
	}
	// Finished coroutines exit inside the switch that ends them; allow the
	// test framework's own goroutines a moment to settle.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("goroutines after 200 halted runs = %d, baseline %d", got, base)
	}
}

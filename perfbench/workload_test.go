package main

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/dsrepro/consensus"
)

// TestSimulatedWorkloadsRepeatPerSeed checks that a simulated workload at a
// fixed instance count reproduces its step counts and registry counts
// exactly per seed, and that another seed changes them. This is what lets a
// later change cite steps_per_inst and the per-layer counts exactly.
func TestSimulatedWorkloadsRepeatPerSeed(t *testing.T) {
	for _, w := range workloads {
		if w.native {
			continue // the hardware picks the interleaving
		}
		t.Run(w.name, func(t *testing.T) {
			instances := 8
			if w.batch == 0 {
				instances = 200
			}
			run := func(seed int64) *tally {
				tl, err := newRunner(w, seed).run(0, instances)
				if err != nil {
					t.Fatal(err)
				}
				if tl.attempted != instances || tl.failures() != 0 {
					t.Fatalf("seed %d: %d of %d instances failed: %s", seed, tl.failures(), tl.attempted, tl.failureSummary())
				}
				return tl
			}
			a, b, c := run(3), run(3), run(4)
			if !reflect.DeepEqual(a.steps, b.steps) || !reflect.DeepEqual(a.counters, b.counters) {
				t.Errorf("seed 3 ran twice gave different counts:\nsteps %v vs %v\ncounters %v vs %v", a.steps, b.steps, a.counters, b.counters)
			}
			if reflect.DeepEqual(a.steps, c.steps) || reflect.DeepEqual(a.counters, c.counters) {
				t.Errorf("seeds 3 and 4 gave identical counts %v", a.steps)
			}
		})
	}
}

func TestInputPoolIsSeeded(t *testing.T) {
	if !reflect.DeepEqual(inputPool(1, 8), inputPool(1, 8)) {
		t.Fatal("one seed gave two input pools")
	}
	if reflect.DeepEqual(inputPool(1, 8), inputPool(2, 8)) {
		t.Fatal("two seeds gave one input pool")
	}
	unanimous := 0
	for _, in := range inputPool(1, 8) {
		if fmt.Sprint(in) == "[0 0 0 0 0 0 0 0]" || fmt.Sprint(in) == "[1 1 1 1 1 1 1 1]" {
			unanimous++
		}
	}
	if unanimous < poolSize/32 || unanimous > poolSize/8 {
		t.Fatalf("%d of %d vectors unanimous, want about one in sixteen", unanimous, poolSize)
	}
}

func TestClassify(t *testing.T) {
	mixed, ones := []int{0, 1, 1}, []int{1, 1, 1}
	decided := []bool{true, true, true}
	for _, tc := range []struct {
		name string
		o    outcome
		want failClass
	}{
		{"agreed", outcome{inputs: mixed, value: 0, decided: decided, values: []int{0, 0, 0}}, failNone},
		{"agreed batch", outcome{inputs: mixed, value: 1}, failNone},
		{"valid", outcome{inputs: ones, value: 1, decided: decided, values: []int{1, 1, 1}}, failNone},
		{"invalid", outcome{inputs: ones, value: 0, decided: decided, values: []int{0, 0, 0}}, failValidity},
		{"invalid batch", outcome{inputs: ones, value: 0}, failValidity},
		{"split", outcome{inputs: mixed, value: 0, decided: decided, values: []int{0, 1, 0}}, failAgreement},
		{"undecided", outcome{inputs: mixed, value: 0, decided: []bool{true, false, true}, values: []int{0, 0, 0}}, failUndecided},
		{"no value", outcome{inputs: mixed, value: -1}, failAgreement},
		{"consistency error", outcome{inputs: mixed, value: -1, err: errors.New("core: consistency violated: processes decided both 0 and 1")}, failAgreement},
		{"budget", outcome{inputs: mixed, value: -1, err: fmt.Errorf("run: %w", consensus.ErrStepBudget)}, failBudget},
		{"stall", outcome{inputs: mixed, value: -1, err: consensus.ErrStalled}, failStall},
		{"other", outcome{inputs: mixed, value: -1, err: errors.New("strip: undecodable counters")}, failOther},
	} {
		if got := classify(tc.o); got != tc.want {
			t.Errorf("%s: classify = %s, want %s", tc.name, failNames[got], failNames[tc.want])
		}
	}
}

// TestOkHoldsSimulatedFailuresAtZero checks that a budget trip fails a
// simulated workload's run but only a wrong output fails a native one.
func TestOkHoldsSimulatedFailuresAtZero(t *testing.T) {
	sim, native := workloads[1], workloads[3]
	if sim.native || !native.native {
		t.Fatal("workload order changed")
	}
	budget := &tally{attempted: 2}
	budget.failed[failNone], budget.failed[failBudget] = 1, 1
	wrong := &tally{attempted: 2}
	wrong.failed[failNone], wrong.failed[failValidity] = 1, 1
	for _, tc := range []struct {
		name string
		t    *tally
		w    workload
		want bool
	}{
		{"budget simulated", budget, sim, false},
		{"budget native", budget, native, true},
		{"validity simulated", wrong, sim, false},
		{"validity native", wrong, native, false},
	} {
		if got := tc.t.ok(tc.w); got != tc.want {
			t.Errorf("%s: ok = %t, want %t", tc.name, got, tc.want)
		}
	}
	if budget.decided() != 1 {
		t.Errorf("decided = %d, want 1", budget.decided())
	}
}

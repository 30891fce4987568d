package consensus

import (
	"strings"
	"testing"
)

// regressionGoldens pins (algorithm, seed) → (decision, total steps) for all
// five protocol kinds under the seeded random schedule. Any drift in the
// scheduler, the protocols, the memory stack or the seed plumbing shows up
// here first. Regenerate deliberately if an intentional behavior change
// invalidates them.
var regressionGoldens = []struct {
	alg   Algorithm
	seed  int64
	value int
	steps int64
}{
	{Bounded, 1, 1, 386},
	{Bounded, 2, 0, 330},
	{Bounded, 3, 1, 5878},
	{AspnesHerlihy, 1, 1, 3778},
	{AspnesHerlihy, 2, 1, 8144},
	{AspnesHerlihy, 3, 1, 6044},
	{LocalCoin, 1, 1, 386},
	{LocalCoin, 2, 0, 330},
	{LocalCoin, 3, 0, 426},
	{StrongCoin, 1, 0, 379},
	{StrongCoin, 2, 1, 385},
	{StrongCoin, 3, 1, 350},
	{Abrahamson, 1, 0, 396},
	{Abrahamson, 2, 1, 351},
	{Abrahamson, 3, 1, 561},
}

func goldenConfig(alg Algorithm, seed int64) Config {
	return Config{
		Inputs:    []int{0, 1, 1, 0},
		Algorithm: alg,
		Seed:      seed,
		Schedule:  Schedule{Kind: RandomSchedule},
		MaxSteps:  200_000_000,
	}
}

// TestRegressionSeedGoldens replays the golden table through serial Solve.
func TestRegressionSeedGoldens(t *testing.T) {
	for _, g := range regressionGoldens {
		res, err := Solve(goldenConfig(g.alg, g.seed))
		if err != nil {
			t.Fatalf("%v seed %d: %v", g.alg, g.seed, err)
		}
		if res.Value != g.value || res.Steps != g.steps {
			t.Errorf("%v seed %d: got value=%d steps=%d, want value=%d steps=%d",
				g.alg, g.seed, res.Value, res.Steps, g.value, g.steps)
		}
	}
}

// TestRegressionSeedGoldensBatch replays the same golden table through the
// parallel batch engine (pooled instances, 4 workers), overriding each
// instance's seed: batch execution must reproduce serial Solve exactly.
func TestRegressionSeedGoldensBatch(t *testing.T) {
	res, err := SolveBatch(BatchConfig{
		Instances: len(regressionGoldens),
		Base:      goldenConfig(Bounded, 0),
		Parallel:  4,
		PerInstance: func(k int, c *Config) {
			*c = goldenConfig(regressionGoldens[k].alg, regressionGoldens[k].seed)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, g := range regressionGoldens {
		if res.Errors[k] != nil {
			t.Fatalf("%v seed %d: %v", g.alg, g.seed, res.Errors[k])
		}
		if res.Decisions[k] != g.value || res.Steps[k] != g.steps {
			t.Errorf("%v seed %d (batch): got value=%d steps=%d, want value=%d steps=%d",
				g.alg, g.seed, res.Decisions[k], res.Steps[k], g.value, g.steps)
		}
	}
}

// TestRegressionBaselineWithdrawalPause guards the fix for a consistency
// violation found by benchmark-scale seed exploration: baselines that
// resolved conflicts with an *instant* flip-and-advance (skipping the
// paper's lines 5-6 preference withdrawal) let a climbing process pass a
// decided leader without re-examining leadership, splitting the decision at
// roughly 1 in 2000 schedules (first seen at LocalCoin seed 1968, n=4).
// All conflict paths now include the ⊥ pause; this sweep keeps them honest.
func TestRegressionBaselineWithdrawalPause(t *testing.T) {
	seeds := int64(3000)
	if testing.Short() {
		seeds = 300
	}
	for _, alg := range []Algorithm{LocalCoin, Abrahamson, StrongCoin} {
		start := int64(1)
		if alg == LocalCoin {
			start = 1900 // cover the historical failure (seed 1968) even in -short runs
		}
		for seed := start; seed < start+seeds; seed++ {
			_, err := Solve(Config{
				Inputs:    []int{0, 1, 0, 1},
				Algorithm: alg,
				Seed:      seed,
				Schedule:  Schedule{Kind: RandomSchedule},
				MaxSteps:  200_000_000,
				B:         2,
			})
			if err != nil {
				t.Fatalf("%v seed %d: %v", alg, seed, err)
			}
		}
	}
}

// TestSolveReportsAgreementViolation pins what Solve returns on a
// consistency violation: the error together with the populated result, so a
// caller can see the steps, per-process decisions and audit firings behind
// it. The seed is the recorded bounded-protocol agreement violation (see
// ROADMAP); once that defect is fixed the run decides cleanly and this test
// must move to another reproducer.
func TestSolveReportsAgreementViolation(t *testing.T) {
	res, err := Solve(Config{
		Inputs:           []int{0, 1, 0, 1, 1},
		Seed:             8561991887606745788,
		Schedule:         Schedule{Kind: RandomSchedule},
		MaxSteps:         20_000_000,
		Audit:            true,
		AuditSampleEvery: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "consistency violated") {
		t.Fatalf("err = %v, want the consistency violation", err)
	}
	if res.Value != -1 || res.Steps != 59809 || len(res.Values) != 5 {
		t.Errorf("result = value %d, steps %d, values %v; want value -1, steps 59809 and five decisions",
			res.Value, res.Steps, res.Values)
	}
	if res.Violations["core.agreement"] != 2 || res.Violations["strip.graph"] == 0 {
		t.Errorf("violations = %v, want core.agreement×2 and strip.graph firings", res.Violations)
	}
}

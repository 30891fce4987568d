package core

import (
	"reflect"
	"testing"

	"github.com/dsrepro/consensus/internal/obs/audit"
	"github.com/dsrepro/consensus/internal/scan"
	"github.com/dsrepro/consensus/internal/sched"
)

// batchInstances builds m self-contained instances of one kind: derived
// seeds, per-instance seeded random adversaries. Instances carry mutable
// adversary state, so every RunBatch call needs a freshly built slice.
func batchInstances(kind Kind, cfg Config, m int, seed int64) []Instance {
	inputs := []int{0, 1, 1, 0}
	insts := make([]Instance, m)
	for k := range insts {
		s := InstanceSeed(seed, k)
		insts[k] = Instance{
			Kind:      kind,
			Cfg:       cfg,
			Inputs:    inputs,
			Seed:      s,
			Adversary: sched.NewRandom(s),
			MaxSteps:  5_000_000,
		}
	}
	return insts
}

// assertBatchEqual compares two batch results instance by instance.
func assertBatchEqual(t *testing.T, label string, a, b []BatchOutcome) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length mismatch %d vs %d", label, len(a), len(b))
	}
	for k := range a {
		if (a[k].Err == nil) != (b[k].Err == nil) {
			t.Fatalf("%s: instance %d error mismatch: %v vs %v", label, k, a[k].Err, b[k].Err)
		}
		ao, bo := a[k].Out, b[k].Out
		if !reflect.DeepEqual(ao.Decided, bo.Decided) || !reflect.DeepEqual(ao.Values, bo.Values) {
			t.Errorf("%s: instance %d decisions diverge: %v/%v vs %v/%v",
				label, k, ao.Decided, ao.Values, bo.Decided, bo.Values)
		}
		if ao.Sched.Steps != bo.Sched.Steps {
			t.Errorf("%s: instance %d steps diverge: %d vs %d", label, k, ao.Sched.Steps, bo.Sched.Steps)
		}
		if !reflect.DeepEqual(ao.Metrics, bo.Metrics) {
			t.Errorf("%s: instance %d metrics diverge: %+v vs %+v", label, k, ao.Metrics, bo.Metrics)
		}
	}
}

// TestRunBatchMatchesExecute proves reset-replay fidelity: a pooled protocol
// (serial batch, one arena reused across instances) produces byte-identical
// outcomes to a fresh Execute per instance, for every protocol kind.
func TestRunBatchMatchesExecute(t *testing.T) {
	kinds := []Kind{KindBounded, KindAHUnbounded, KindExpLocal, KindStrongCoin, KindAbrahamson}
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			const m = 4
			pooled := RunBatch(1, nil, batchInstances(kind, Config{}, m, 7))
			fresh := make([]BatchOutcome, m)
			for k, inst := range batchInstances(kind, Config{}, m, 7) {
				out, err := Execute(inst.Kind, inst.Cfg, ExecConfig{
					Inputs:    inst.Inputs,
					Seed:      inst.Seed,
					Adversary: inst.Adversary,
					MaxSteps:  inst.MaxSteps,
				})
				fresh[k] = BatchOutcome{Out: out, Err: err}
			}
			assertBatchEqual(t, kind.String(), pooled, fresh)
		})
	}
}

// TestRunBatchMemKinds runs the pooled-vs-fresh comparison across snapshot
// implementations, so every memory Reset path is exercised.
func TestRunBatchMemKinds(t *testing.T) {
	for _, mk := range []scan.Kind{scan.KindArrow, scan.KindSeqSnap, scan.KindWaitFree} {
		mk := mk
		t.Run(mk.String(), func(t *testing.T) {
			t.Parallel()
			cfg := Config{MemKind: mk}
			const m = 3
			pooled := RunBatch(1, nil, batchInstances(KindBounded, cfg, m, 11))
			fresh := make([]BatchOutcome, m)
			for k, inst := range batchInstances(KindBounded, cfg, m, 11) {
				out, err := Execute(inst.Kind, inst.Cfg, ExecConfig{
					Inputs:    inst.Inputs,
					Seed:      inst.Seed,
					Adversary: inst.Adversary,
					MaxSteps:  inst.MaxSteps,
				})
				fresh[k] = BatchOutcome{Out: out, Err: err}
			}
			assertBatchEqual(t, mk.String(), pooled, fresh)
		})
	}
}

// TestRunBatchParallelDeterminism: the batch result is identical at any
// worker count.
func TestRunBatchParallelDeterminism(t *testing.T) {
	const m = 8
	base := RunBatch(1, nil, batchInstances(KindBounded, Config{}, m, 3))
	for _, par := range []int{2, 4, 8} {
		got := RunBatch(par, nil, batchInstances(KindBounded, Config{}, m, 3))
		assertBatchEqual(t, kindLabel(par), base, got)
	}
}

func kindLabel(par int) string { return "parallel=" + string(rune('0'+par)) }

// TestInstanceSeedStable pins the seed derivation: changing it would silently
// invalidate every recorded batch, so the constants are golden.
func TestInstanceSeedStable(t *testing.T) {
	golden := map[[2]int64]int64{
		{0, 0}:  -2152535657050944081,
		{0, 1}:  7960286522194355700,
		{0, 2}:  487617019471545679,
		{42, 0}: -4767286540954276203,
		{42, 1}: 2949826092126892291,
	}
	for in, want := range golden {
		if got := InstanceSeed(in[0], int(in[1])); got != want {
			t.Errorf("InstanceSeed(%d, %d) = %d, want %d", in[0], in[1], got, want)
		}
	}
	seen := map[int64]bool{}
	for k := 0; k < 1000; k++ {
		s := InstanceSeed(99, k)
		if seen[s] {
			t.Fatalf("InstanceSeed collision at k=%d", k)
		}
		seen[s] = true
	}
}

// TestArenaReuse checks the cache policy: same (kind, cfg) reuses the
// instance, a different cfg rebuilds it.
func TestArenaReuse(t *testing.T) {
	arena := NewArena()
	cfg := Config{N: 3}
	p1, err := arena.Protocol(KindBounded, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := arena.Protocol(KindBounded, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("same configuration should reuse the pooled instance")
	}
	p3, err := arena.Protocol(KindBounded, Config{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if interface{}(p3) == interface{}(p1) {
		t.Error("changed configuration must rebuild the instance")
	}
	p4, err := arena.Protocol(KindExpLocal, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if interface{}(p4) == interface{}(p3) {
		t.Error("kinds must not share slots")
	}
}

// TestArenaAcquireAllocFree pins the steady-state pooling contract: acquiring
// a warm same-shaped instance (map hit + full Reset of the register fabric)
// performs zero heap allocations.
func TestArenaAcquireAllocFree(t *testing.T) {
	arena := NewArena()
	cfg := Config{N: 4}
	if _, err := arena.Protocol(KindBounded, cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := arena.Protocol(KindBounded, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("warm arena acquire allocated %.1f times per run, want 0", allocs)
	}
}

// TestPooledRunDropsPreviousInstruments is the stale-instrument regression:
// in one arena with a nil batch sink, an unaudited instance that follows an
// audited one of the same shape must not write its events into the first
// monitor's flight ring. ExecuteProto installs every instrument on every run,
// nil ones included, down to the registers.
func TestPooledRunDropsPreviousInstruments(t *testing.T) {
	cases := []struct {
		name string
		kind Kind
		cfg  Config
	}{
		{"bounded", KindBounded, Config{}},
		{"bounded-bloom", KindBounded, Config{UseBloomArrows: true}},
		{"bounded-waitfree", KindBounded, Config{MemKind: scan.KindWaitFree}},
		{"ah-unbounded-seqsnap", KindAHUnbounded, Config{MemKind: scan.KindSeqSnap}},
		{"exp-local", KindExpLocal, Config{}},
		{"strong-coin-collect", KindStrongCoin, Config{MemKind: scan.KindCollect}},
		{"abrahamson", KindAbrahamson, Config{}},
		{"anonymous", KindAnonymous, Config{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			arena := NewArena()
			run := func(inst Instance) {
				cfg := inst.Cfg
				cfg.N = len(inst.Inputs)
				proto, err := arena.Protocol(inst.Kind, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ExecuteProto(proto, ExecConfig{
					Inputs:    inst.Inputs,
					Seed:      inst.Seed,
					Adversary: inst.Adversary,
					MaxSteps:  inst.MaxSteps,
					Monitor:   inst.Monitor,
				}); err != nil {
					t.Fatal(err)
				}
			}
			insts := batchInstances(c.kind, c.cfg, 2, 11)
			mon := audit.New(audit.Options{})
			insts[0].Monitor = mon
			run(insts[0])
			ring := mon.FlightRecorder()
			before, dropped := ring.Events(), ring.Dropped()
			run(insts[1])
			if after := ring.Events(); ring.Dropped() != dropped || !reflect.DeepEqual(before, after) {
				t.Fatalf("the unaudited run wrote into the previous monitor's flight ring: tail %v -> %v",
					before[len(before)-1], after[len(after)-1])
			}
		})
	}
}

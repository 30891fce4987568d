package core

import (
	"errors"
	"testing"

	"github.com/dsrepro/consensus/internal/scan"
	"github.com/dsrepro/consensus/internal/sched"
)

// allKinds lists every protocol under test.
var allKinds = []Kind{KindBounded, KindAHUnbounded, KindExpLocal, KindStrongCoin, KindAbrahamson}

func mustExecute(t *testing.T, kind Kind, cfg Config, ec ExecConfig) Outcome {
	t.Helper()
	out, err := Execute(kind, cfg, ec)
	if err != nil {
		t.Fatalf("%v: Execute: %v", kind, err)
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{N: 0}).Validate(); err == nil {
		t.Fatal("expected error for N=0")
	}
	if err := (Config{N: 2, K: -1}).Validate(); err == nil {
		t.Fatal("expected error for negative K")
	}
	c := Config{N: 3}.withDefaults()
	if c.K != 2 || c.B != 4 || c.MemKind != scan.KindArrow {
		t.Fatalf("defaults wrong: %+v", c)
	}
}

func TestNewRejectsUnknownKind(t *testing.T) {
	if _, err := New(Kind(42), Config{N: 2}); err == nil {
		t.Fatal("expected error")
	}
	if Kind(42).String() == "" {
		t.Fatal("Kind.String empty")
	}
	for _, k := range allKinds {
		if k.String() == "" {
			t.Fatalf("kind %d has empty name", int(k))
		}
	}
}

func TestExecuteRejectsBadInputs(t *testing.T) {
	if _, err := Execute(KindBounded, Config{}, ExecConfig{}); err == nil {
		t.Fatal("expected error for empty inputs")
	}
	if _, err := Execute(KindBounded, Config{}, ExecConfig{Inputs: []int{0, 2}}); err == nil {
		t.Fatal("expected error for non-binary input")
	}
}

func TestSingleProcessDecidesItsInput(t *testing.T) {
	for _, kind := range allKinds {
		for _, input := range []int{0, 1} {
			out := mustExecute(t, kind, Config{}, ExecConfig{Inputs: []int{input}, Seed: 1, MaxSteps: 1_000_000})
			if out.Err != nil {
				t.Fatalf("%v input %d: %v", kind, input, out.Err)
			}
			if !out.AllDecided() || out.Values[0] != input {
				t.Fatalf("%v input %d: decided=%v values=%v", kind, input, out.Decided, out.Values)
			}
		}
	}
}

// TestValidity: all processes share an input — they must all decide it,
// for every protocol, under benign and adversarial schedules.
func TestValidity(t *testing.T) {
	for _, kind := range allKinds {
		for _, input := range []int{0, 1} {
			for seed := int64(0); seed < 10; seed++ {
				inputs := []int{input, input, input}
				out := mustExecute(t, kind, Config{}, ExecConfig{
					Inputs: inputs, Seed: seed,
					Adversary: sched.NewRandom(seed * 3),
					MaxSteps:  5_000_000,
				})
				if out.Err != nil {
					t.Fatalf("%v seed %d: run error: %v", kind, seed, out.Err)
				}
				if !out.AllDecided() {
					t.Fatalf("%v seed %d: not all decided: %v", kind, seed, out.Decided)
				}
				for i, v := range out.Values {
					if v != input {
						t.Fatalf("%v seed %d: process %d decided %d, want %d (validity)", kind, seed, i, v, input)
					}
				}
			}
		}
	}
}

// TestAgreementMixedInputs: mixed inputs — everyone must decide, on a common
// value that is some process's input.
func TestAgreementMixedInputs(t *testing.T) {
	for _, kind := range allKinds {
		for seed := int64(0); seed < 25; seed++ {
			inputs := []int{0, 1, 0, 1}
			out := mustExecute(t, kind, Config{B: 2}, ExecConfig{
				Inputs: inputs, Seed: seed,
				Adversary: sched.NewRandom(seed*7 + 1),
				MaxSteps:  20_000_000,
			})
			if out.Err != nil {
				t.Fatalf("%v seed %d: run error: %v (rounds=%v)", kind, seed, out.Err, out.Metrics.Rounds)
			}
			if !out.AllDecided() {
				t.Fatalf("%v seed %d: not all decided", kind, seed)
			}
			v, err := out.Agreement()
			if err != nil {
				t.Fatalf("%v seed %d: %v (values=%v)", kind, seed, err, out.Values)
			}
			if v != 0 && v != 1 {
				t.Fatalf("%v seed %d: decided %d, not an input", kind, seed, v)
			}
		}
	}
}

// TestAgreementUnderLagger: a starved process must not break agreement or
// termination.
func TestAgreementUnderLagger(t *testing.T) {
	for _, kind := range allKinds {
		for seed := int64(0); seed < 10; seed++ {
			out := mustExecute(t, kind, Config{B: 2}, ExecConfig{
				Inputs: []int{1, 0, 1},
				Seed:   seed, Adversary: sched.NewLagger(0, 40, seed+9),
				MaxSteps: 20_000_000,
			})
			if out.Err != nil {
				t.Fatalf("%v seed %d: run error: %v", kind, seed, out.Err)
			}
			if !out.AllDecided() {
				t.Fatalf("%v seed %d: not all decided", kind, seed)
			}
			if _, err := out.Agreement(); err != nil {
				t.Fatalf("%v seed %d: %v", kind, seed, err)
			}
		}
	}
}

// TestCrashFaultTolerance: crash all but one process mid-run; the survivor
// must still decide (wait-freedom), and agreement must hold among deciders.
func TestCrashFaultTolerance(t *testing.T) {
	for _, kind := range allKinds {
		for seed := int64(0); seed < 10; seed++ {
			out := mustExecute(t, kind, Config{B: 2}, ExecConfig{
				Inputs: []int{0, 1, 1},
				Seed:   seed,
				Adversary: sched.NewCrash(sched.NewRandom(seed+3), map[int]int64{
					1: 150, 2: 400,
				}),
				MaxSteps: 20_000_000,
			})
			if out.Err != nil && !errors.Is(out.Err, sched.ErrStalled) {
				t.Fatalf("%v seed %d: run error: %v", kind, seed, out.Err)
			}
			if !out.Decided[0] {
				t.Fatalf("%v seed %d: survivor did not decide (wait-freedom violated)", kind, seed)
			}
			if _, err := out.Agreement(); err != nil {
				t.Fatalf("%v seed %d: %v", kind, seed, err)
			}
		}
	}
}

// TestBoundedDeterministicReplay: same seed and adversary give identical
// outcomes and step counts.
func TestBoundedDeterministicReplay(t *testing.T) {
	run := func() Outcome {
		return mustExecute(t, KindBounded, Config{B: 2}, ExecConfig{
			Inputs: []int{0, 1, 0}, Seed: 1234,
			Adversary: sched.NewRandom(99), MaxSteps: 20_000_000,
		})
	}
	a, b := run(), run()
	if a.Sched.Steps != b.Sched.Steps {
		t.Fatalf("replay diverged: %d vs %d steps", a.Sched.Steps, b.Sched.Steps)
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] || a.Decided[i] != b.Decided[i] {
			t.Fatalf("replay diverged at process %d", i)
		}
	}
}

// TestBoundedSpaceStaysBounded: coin counters stay within M+1 and rounds
// metrics are recorded; contrast with the unbounded baseline whose round
// numbers grow.
func TestBoundedSpaceStaysBounded(t *testing.T) {
	cfg := Config{B: 2, M: 64}
	out := mustExecute(t, KindBounded, cfg, ExecConfig{
		Inputs: []int{0, 1, 0, 1}, Seed: 7,
		Adversary: sched.NewRandom(5), MaxSteps: 20_000_000,
	})
	if out.Err != nil {
		t.Fatalf("run error: %v", out.Err)
	}
	if out.Metrics.MaxAbsCoin > int64(cfg.M+1) {
		t.Fatalf("coin counter escaped bound: %d > %d", out.Metrics.MaxAbsCoin, cfg.M+1)
	}
	if out.Metrics.MaxRound != 0 {
		t.Fatalf("bounded protocol reported an explicit round number: %d", out.Metrics.MaxRound)
	}
}

func TestUnboundedBaselineGrowsRounds(t *testing.T) {
	out := mustExecute(t, KindAHUnbounded, Config{B: 2}, ExecConfig{
		Inputs: []int{0, 1}, Seed: 3,
		Adversary: sched.NewRandom(11), MaxSteps: 20_000_000,
	})
	if out.Err != nil {
		t.Fatalf("run error: %v", out.Err)
	}
	if out.Metrics.MaxRound < 2 {
		t.Fatalf("MaxRound = %d, want >= 2", out.Metrics.MaxRound)
	}
	if out.Metrics.StripLen < out.Metrics.MaxRound {
		t.Fatalf("strip (%d) shorter than rounds (%d)", out.Metrics.StripLen, out.Metrics.MaxRound)
	}
}

// TestBoundedOverBloomArrows runs the full stack on Bloom-constructed 2W2R
// registers — the deepest substrate path.
func TestBoundedOverBloomArrows(t *testing.T) {
	out := mustExecute(t, KindBounded, Config{B: 2, UseBloomArrows: true}, ExecConfig{
		Inputs: []int{1, 0}, Seed: 21,
		Adversary: sched.NewRandom(2), MaxSteps: 20_000_000,
	})
	if out.Err != nil {
		t.Fatalf("run error: %v", out.Err)
	}
	if !out.AllDecided() {
		t.Fatal("not all decided over Bloom arrows")
	}
	if _, err := out.Agreement(); err != nil {
		t.Fatal(err)
	}
}

// TestAntiAgreementAdversary: an adaptive adversary that always schedules a
// process whose preference is in the minority (trying to keep the system
// split) must still not prevent termination or agreement.
func TestAntiAgreementAdversary(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		proto, err := NewBounded(Config{N: 4, B: 2})
		if err != nil {
			t.Fatal(err)
		}
		// Adaptive: prefer scheduling lower pids on even phases and higher on
		// odd phases of 64 steps, churning the leadership.
		adv := sched.FuncAdversary(func(waiting []int, step int64) int {
			if (step/64)%2 == 0 {
				return waiting[0]
			}
			return waiting[len(waiting)-1]
		})
		out, err := ExecuteProto(proto, ExecConfig{
			Inputs: []int{0, 1, 0, 1}, Seed: seed, Adversary: adv, MaxSteps: 30_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if out.Err != nil {
			t.Fatalf("seed %d: run error: %v", seed, out.Err)
		}
		if !out.AllDecided() {
			t.Fatalf("seed %d: not all decided", seed)
		}
		if _, err := out.Agreement(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestCoinSlotArithmetic(t *testing.T) {
	const k = 2
	// Own slot: w=0 -> next(cur).
	for cur := 0; cur <= k; cur++ {
		if coinSlot(cur, 0, k) != next(cur, k) {
			t.Fatalf("coinSlot(cur=%d, 0) != next(cur)", cur)
		}
	}
	// One round ahead: the slot it zeroed one inc ago.
	if coinSlot(1, 1, k) != 1 {
		t.Fatalf("coinSlot(1,1,2) = %d, want 1", coinSlot(1, 1, k))
	}
	// Wraparound stays in range.
	for cur := 0; cur <= k; cur++ {
		for w := 0; w <= k; w++ {
			s := coinSlot(cur, w, k)
			if s < 0 || s > k {
				t.Fatalf("coinSlot(%d,%d) = %d out of range", cur, w, s)
			}
		}
	}
}

func TestLeadersAgreeHelper(t *testing.T) {
	n, k := 3, 2
	view := []Entry{NewEntry(n, k), NewEntry(n, k), NewEntry(n, k)}
	g, err := decodeView(view, k)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := leadersAgree(view, g); ok {
		t.Fatal("all-Bottom leaders cannot agree")
	}
	for i := range view {
		view[i].Pref = 1
	}
	v, ok := leadersAgree(view, g)
	if !ok || v != 1 {
		t.Fatalf("leadersAgree = %d,%v want 1,true", v, ok)
	}
	view[1].Pref = 0
	if _, ok := leadersAgree(view, g); ok {
		t.Fatal("split leaders reported agreeing")
	}
}

func TestOutcomeAgreementDetectsSplit(t *testing.T) {
	o := Outcome{Decided: []bool{true, true}, Values: []int{0, 1}}
	if _, err := o.Agreement(); err == nil {
		t.Fatal("expected consistency error")
	}
	o = Outcome{Decided: []bool{true, false}, Values: []int{1, 0}}
	v, err := o.Agreement()
	if err != nil || v != 1 {
		t.Fatalf("Agreement = %d,%v", v, err)
	}
}

// TestExecuteProtoRejectsMismatchedModes pins that an instance's
// construction-time modes must fit the run it is given: ExecuteProto refuses
// the run instead of switching the instance's storage or scan-retry mode.
func TestExecuteProtoRejectsMismatchedModes(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ec   ExecConfig
	}{
		{"native-built-on-simulated", Config{N: 2, Native: true}, ExecConfig{}},
		{"simulated-built-on-native", Config{N: 2}, ExecConfig{Substrate: sched.NewNative(sched.NativeOptions{})}},
		{"commuting-without-epoch", Config{N: 2}, ExecConfig{Commuting: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			proto, err := NewBounded(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.ec.Inputs = []int{0, 1}
			if _, err := ExecuteProto(proto, c.ec); err == nil {
				t.Fatal("ExecuteProto ran an instance built for another mode")
			}
		})
	}
}

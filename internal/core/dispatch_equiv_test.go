package core

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/sched"
)

// This suite proves the commuting-dispatch determinism contract at the
// protocol level: a commuting run's full cross-layer JSONL trace — every
// register read, scan retry, coin flip and decision, in scheduler order — is
// byte-identical to replaying its recorded grant sequence one step at a time
// through the sequential dispatch engine. The commuting schedule therefore IS
// a sequential grant order, and every safety result proven for sequential
// schedules transfers unchanged.

// stepRec is one scheduler grant observed through ExecConfig.OnStep.
type stepRec struct {
	pid  int
	step int64
}

// execCommutingTraced runs one protocol instance under commuting dispatch
// with a full JSONL trace attached, recording the grant sequence.
func execCommutingTraced(t *testing.T, kind Kind, seed int64) (Outcome, []byte, []stepRec) {
	t.Helper()
	var buf bytes.Buffer
	rec := obs.NewJSONLRecorder(&buf)
	var grants []stepRec
	out, err := Execute(kind, Config{}, ExecConfig{
		Inputs:    []int{0, 1, 1, 0},
		Seed:      seed,
		Adversary: sched.NewRandom(seed),
		MaxSteps:  5_000_000,
		Sink:      obs.NewSink(rec),
		Commuting: true,
		OnStep:    func(pid int, step int64) { grants = append(grants, stepRec{pid, step}) },
	})
	if err != nil {
		t.Fatalf("Execute(%v, seed=%d, commuting): %v", kind, seed, err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatalf("trace flush: %v", err)
	}
	return out, buf.Bytes(), grants
}

// execReplayTraced re-executes the instance under the sequential dispatcher,
// with the recorded grant sequence as the adversary and the scan layer held
// in the same epoch mode the commuting run used.
func execReplayTraced(t *testing.T, kind Kind, seed int64, grants []stepRec) (Outcome, []byte) {
	t.Helper()
	var buf bytes.Buffer
	rec := obs.NewJSONLRecorder(&buf)
	i := 0
	replay := sched.FuncAdversary(func(waiting []int, step int64) int {
		if i >= len(grants) {
			return -1
		}
		pick := grants[i].pid
		i++
		return pick
	})
	out, err := Execute(kind, Config{ScanEpoch: true}, ExecConfig{
		Inputs:    []int{0, 1, 1, 0},
		Seed:      seed,
		Adversary: replay,
		MaxSteps:  5_000_000,
		Sink:      obs.NewSink(rec),
	})
	if err != nil {
		t.Fatalf("Execute(%v, seed=%d, replay): %v", kind, seed, err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatalf("trace flush: %v", err)
	}
	return out, buf.Bytes()
}

func TestCommutingDispatchByteIdenticalToSequentialReplay(t *testing.T) {
	kinds := []Kind{KindBounded, KindAHUnbounded, KindExpLocal, KindStrongCoin, KindAbrahamson, KindAnonymous}
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				comOut, comTrace, grants := execCommutingTraced(t, kind, seed)
				if len(grants) == 0 {
					t.Fatalf("seed %d: no grants recorded", seed)
				}
				seqOut, seqTrace := execReplayTraced(t, kind, seed, grants)
				if !bytes.Equal(comTrace, seqTrace) {
					t.Fatalf("seed %d: JSONL traces diverge between commuting run and sequential replay (%d vs %d bytes)",
						seed, len(comTrace), len(seqTrace))
				}
				if len(comTrace) == 0 {
					t.Fatalf("seed %d: empty trace", seed)
				}
				if !reflect.DeepEqual(comOut.Values, seqOut.Values) ||
					!reflect.DeepEqual(comOut.Decided, seqOut.Decided) {
					t.Fatalf("seed %d: decisions diverge: %v/%v vs %v/%v",
						seed, comOut.Values, comOut.Decided, seqOut.Values, seqOut.Decided)
				}
				if comOut.Sched.Steps != seqOut.Sched.Steps {
					t.Fatalf("seed %d: steps diverge: %d vs %d", seed, comOut.Sched.Steps, seqOut.Sched.Steps)
				}
				if !reflect.DeepEqual(comOut.Sched.PerProc, seqOut.Sched.PerProc) ||
					!reflect.DeepEqual(comOut.Sched.WaitSteps, seqOut.Sched.WaitSteps) {
					t.Fatalf("seed %d: sched accounting diverges", seed)
				}
				if !reflect.DeepEqual(comOut.Metrics, seqOut.Metrics) {
					t.Fatalf("seed %d: metrics diverge: %+v vs %+v", seed, comOut.Metrics, seqOut.Metrics)
				}
			}
		})
	}
}

// TestCommutingDispatchUnderBatch proves batching preserves the dispatch
// mode's determinism: serial and Parallel=4 batches of commuting instances
// yield identical outcomes.
func TestCommutingDispatchUnderBatch(t *testing.T) {
	const m = 6
	mk := func() []Instance {
		insts := batchInstances(KindBounded, Config{}, m, 21)
		for k := range insts {
			insts[k].Commuting = true
		}
		return insts
	}
	serial := RunBatch(1, nil, mk())
	par := RunBatch(4, nil, mk())
	assertBatchEqual(t, "parallel=4", serial, par)
}

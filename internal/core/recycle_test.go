package core

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/obs/prof"
	"github.com/dsrepro/consensus/internal/sched"
)

// jsonlTrace executes one instance and returns its full cross-layer JSONL
// trace.
func jsonlTrace(t *testing.T, kind Kind, inputs []int, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := obs.NewJSONLRecorder(&buf)
	out, err := Execute(kind, Config{}, ExecConfig{
		Inputs:    inputs,
		Seed:      seed,
		Adversary: sched.NewRandom(seed),
		MaxSteps:  StepBudget(kind, len(inputs)),
		Sink:      obs.NewSink(rec),
	})
	if err == nil {
		err = out.Err
	}
	if err != nil {
		t.Fatalf("%v seed %d: %v", kind, seed, err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRecycledSourcesKeepTraces: the per-process generators are recycled
// between runs, so a run at seed B after a long run at seed A (whose
// processes draw past every slot of their generators) must trace exactly
// as seed B did before it.
func TestRecycledSourcesKeepTraces(t *testing.T) {
	const seedA, seedB = 3, 4
	for _, kind := range []Kind{KindBounded, KindAnonymous} {
		t.Run(kind.String(), func(t *testing.T) {
			first := jsonlTrace(t, kind, []int{0, 1, 1, 0}, seedB)
			jsonlTrace(t, KindBounded, []int{0, 1, 0, 1, 1}, seedA)
			if again := jsonlTrace(t, kind, []int{0, 1, 1, 0}, seedB); !bytes.Equal(again, first) {
				t.Fatalf("seed %d traced %d bytes after seed %d, %d bytes before", seedB, len(again), seedA, len(first))
			}
		})
	}
}

// batchTraces runs m instances through RunBatch, the engine behind
// consensus.SolveBatch, with a span-retaining profiler on each, and returns
// every instance's Chrome trace. Workers above 1 hand recycled generators
// across goroutines.
func batchTraces(t *testing.T, kind Kind, m, parallel int) ([][]byte, []BatchOutcome) {
	t.Helper()
	insts := batchInstances(kind, Config{}, m, 99)
	profs := make([]*prof.Profiler, m)
	for k := range insts {
		profs[k] = prof.New(prof.Options{N: len(insts[k].Inputs), RetainSpans: true})
		insts[k].Profiler = profs[k]
	}
	outs := RunBatch(parallel, nil, insts)
	traces := make([][]byte, m)
	for k, p := range profs {
		var buf bytes.Buffer
		if err := prof.WritePerfetto(&buf, p.Report()); err != nil {
			t.Fatalf("instance %d: %v", k, err)
		}
		traces[k] = buf.Bytes()
	}
	return traces, outs
}

// TestRunBatchTracesAcrossParallelism: a batch traces every instance
// identically at Parallel 1 and 4, for the bounded and the anonymous
// protocol.
func TestRunBatchTracesAcrossParallelism(t *testing.T) {
	const m = 16
	for _, kind := range []Kind{KindBounded, KindAnonymous} {
		t.Run(kind.String(), func(t *testing.T) {
			serial, sOuts := batchTraces(t, kind, m, 1)
			par, pOuts := batchTraces(t, kind, m, 4)
			assertBatchEqual(t, fmt.Sprintf("%v parallel=4", kind), sOuts, pOuts)
			for k := range serial {
				if !bytes.Equal(serial[k], par[k]) {
					t.Errorf("instance %d: trace at Parallel 4 differs from Parallel 1", k)
				}
			}
		})
	}
}

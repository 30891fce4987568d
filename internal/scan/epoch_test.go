package scan

import (
	"testing"

	"github.com/dsrepro/consensus/internal/obs/audit"
	"github.com/dsrepro/consensus/internal/register"
	"github.com/dsrepro/consensus/internal/sched"
)

// The tests in this file pin the dirty-bit epoch retry path (Arrow.SetEpoch):
// it must satisfy the same P1–P3 properties as the classic double collect —
// under sequential and commuting dispatch, over direct and Bloom arrow
// registers — while costing strictly less on contended retries.

// runWorkloadCommuting is runWorkload under the commuting-dispatch engine.
func runWorkloadCommuting(t *testing.T, mem Memory[int], n, rounds int, seed int64, adv sched.Adversary) *HistoryRec {
	t.Helper()
	h := &HistoryRec{N: n}
	written := make([]int, n)
	_, err := sched.Run(sched.Config{N: n, Seed: seed, Adversary: adv, MaxSteps: 2_000_000, Commuting: true}, func(p *sched.Proc) {
		i := p.ID()
		for k := 0; k < rounds; k++ {
			start := p.Now()
			view := mem.Scan(p)
			end := p.Now()
			rec := ScanRec{Proc: i, View: append([]int(nil), view...), Start: start, End: end}
			rec.View[i] = written[i]
			h.Scans = append(h.Scans, rec)

			written[i]++
			start = p.Now()
			mem.Write(p, written[i])
			h.Writes = append(h.Writes, WriteRec{Proc: i, Seq: written[i], Start: start, End: p.Now()})
		}
	})
	if err != nil {
		t.Fatalf("workload run: %v", err)
	}
	return h
}

func TestEpochArrowSatisfiesP123UnderRandomSchedules(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		mem := NewArrow[int](3, register.DirectFactory)
		mem.SetEpoch(true)
		h := runWorkload(t, mem, 3, 4, seed, sched.NewRandom(seed*7+1))
		if err := CheckAll(h); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestEpochArrowSatisfiesP123UnderLagger(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		mem := NewArrow[int](4, register.DirectFactory)
		mem.SetEpoch(true)
		h := runWorkload(t, mem, 4, 3, seed, sched.NewLagger(0, 25, seed+2))
		if err := CheckAll(h); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestEpochArrowOverBloomSatisfiesP123(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		mem := NewArrow[int](3, register.BloomFactory)
		mem.SetEpoch(true)
		h := runWorkload(t, mem, 3, 3, seed, sched.NewRandom(seed*13+5))
		if err := CheckAll(h); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestEpochArrowUnderCommutingDispatch drives the pairing the knob ships as:
// epoch scans executing on the commuting engine, with batches actually
// forming across the scanners' and writers' register footprints.
func TestEpochArrowUnderCommutingDispatch(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		mem := NewArrow[int](4, register.DirectFactory)
		mem.SetEpoch(true)
		h := runWorkloadCommuting(t, mem, 4, 4, seed, sched.NewRandom(seed*7+1))
		if err := CheckAll(h); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestEpochCleanFirstPassStepIdentical: with no contention, a scan costs the
// same 4(n-1) steps on both paths — the epoch machinery only changes retry
// passes.
func TestEpochCleanFirstPassStepIdentical(t *testing.T) {
	for _, epoch := range []bool{false, true} {
		const n = 5
		mem := NewArrow[int](n, register.DirectFactory)
		mem.SetEpoch(epoch)
		var steps int64
		_, err := sched.Run(sched.Config{N: n, Seed: 1}, func(p *sched.Proc) {
			if p.ID() != 0 {
				return
			}
			before := p.Steps()
			mem.Scan(p)
			steps = p.Steps() - before
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(4 * (n - 1)); steps != want {
			t.Fatalf("epoch=%v: uncontended scan cost %d steps, want %d", epoch, steps, want)
		}
	}
}

// TestEpochRetriesCostLess: under a write-heavy contended schedule, the epoch
// path must spend fewer total steps than the classic path for the same
// workload shape. Both runs are deterministic; the margin is generous so the
// pin survives incidental schedule drift.
func TestEpochRetriesCostLess(t *testing.T) {
	total := func(epoch bool) int64 {
		var sum int64
		for seed := int64(0); seed < 10; seed++ {
			mem := NewArrow[int](6, register.DirectFactory)
			mem.SetEpoch(epoch)
			res, err := sched.Run(sched.Config{N: 6, Seed: seed, Adversary: sched.NewRandom(seed*3 + 1), MaxSteps: 2_000_000}, func(p *sched.Proc) {
				for k := 0; k < 6; k++ {
					mem.Scan(p)
					mem.Write(p, k)
				}
			})
			if err != nil {
				t.Fatalf("seed %d epoch=%v: %v", seed, epoch, err)
			}
			sum += res.Steps
		}
		return sum
	}
	classic, epoch := total(false), total(true)
	if epoch >= classic {
		t.Fatalf("epoch path not cheaper under contention: epoch=%d classic=%d total steps", epoch, classic)
	}
	t.Logf("contended steps: classic=%d epoch=%d (%.1f%% saved)", classic, epoch,
		100*(1-float64(epoch)/float64(classic)))
}

// TestEpochTornScanCaughtByHandshakeProbe: the fault injection that returns a
// torn double collect as clean must still be caught on the epoch path — the
// handshake audit independently re-compares each register's two window reads,
// so any pass whose toggle mismatch was suppressed fires the probe.
func TestEpochTornScanCaughtByHandshakeProbe(t *testing.T) {
	MutTornScan.Store(true)
	defer MutTornScan.Store(false)
	var fired int64
	for seed := int64(0); seed < 50 && fired == 0; seed++ {
		mem := NewArrow[int](4, register.DirectFactory)
		mem.SetEpoch(true)
		mon := audit.New(audit.Options{SampleEvery: 1})
		mem.Install(register.Instruments{Monitor: mon})
		runWorkload(t, mem, 4, 6, seed, sched.NewRandom(seed*3+7))
		fired += mon.Violations()["scan.handshake"]
	}
	if fired == 0 {
		t.Fatal("torn-scan injection never fired scan.handshake in 50 epoch-mode schedules; the epoch path is masking tears the probe should see")
	}
}

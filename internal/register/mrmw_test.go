package register

import (
	"testing"

	"github.com/dsrepro/consensus/internal/linearize"
	"github.com/dsrepro/consensus/internal/sched"
)

func TestMRMWSequential(t *testing.T) {
	_, err := sched.Run(sched.Config{N: 1, Seed: 1}, func(p *sched.Proc) {
		r := NewMRMW(1, 10, false)
		if got := r.Read(p); got != 10 {
			t.Errorf("initial Read = %d", got)
		}
		r.Write(p, 20)
		r.Write(p, 30)
		if got := r.Read(p); got != 30 {
			t.Errorf("Read = %d, want 30", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMRMWPidChecked(t *testing.T) {
	r := NewMRMW(2, 0, false)
	_, err := sched.Run(sched.Config{N: 3, Seed: 1}, func(p *sched.Proc) {
		if p.ID() != 2 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("expected panic for out-of-range pid")
			}
		}()
		r.Read(p)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMRMWIsAtomic records histories with multiple concurrent writers and
// readers under random adversarial schedules and checks linearizability —
// the property the timestamp construction must provide.
func TestMRMWIsAtomic(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		const n = 3
		reg := NewMRMW(n, 0, false)
		var rec linearize.Recorder
		nextVal := 1 // unique write values (serialized under the scheduler)
		_, err := sched.Run(sched.Config{
			N: n, Seed: seed, Adversary: sched.NewRandom(seed*19 + 7),
		}, func(p *sched.Proc) {
			p.Step() // enter the serialized regime before touching nextVal
			for k := 0; k < 4; k++ {
				if p.Rand().Intn(2) == 0 {
					v := nextVal
					nextVal++
					start := p.Now()
					reg.Write(p, v)
					rec.Add(linearize.Op{Proc: p.ID(), IsWrite: true, Val: v, Start: start, End: p.Now()})
				} else {
					start := p.Now()
					v := reg.Read(p)
					rec.Add(linearize.Op{Proc: p.ID(), Val: v, Start: start, End: p.Now()})
				}
			}
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ok, err := linearize.Check(rec.History(), 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !ok {
			t.Fatalf("seed %d: non-linearizable MRMW history:\n%v", seed, rec.History())
		}
	}
}

func TestMRMWTimestampsGrowWithoutBound(t *testing.T) {
	reg := NewMRMW(2, 0, false)
	_, err := sched.Run(sched.Config{N: 2, Seed: 4}, func(p *sched.Proc) {
		for k := 0; k < 50; k++ {
			reg.Write(p, k)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if ts := reg.MaxTimestamp(); ts < 50 {
		t.Fatalf("MaxTimestamp = %d, want >= 50 (unbounded growth)", ts)
	}
}

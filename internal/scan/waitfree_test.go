package scan

import (
	"testing"

	"github.com/dsrepro/consensus/internal/sched"
)

func TestWaitFreeBasics(t *testing.T) {
	mem := NewWaitFree[int](2)
	_, err := sched.Run(sched.Config{N: 2, Seed: 1}, func(p *sched.Proc) {
		if p.ID() != 0 {
			return
		}
		view := mem.Scan(p)
		if view[0] != 0 || view[1] != 0 {
			t.Errorf("initial view = %v", view)
		}
		mem.Write(p, 41)
		view = mem.Scan(p)
		if view[0] != 41 {
			t.Errorf("own slot = %d, want 41", view[0])
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if mem.PeekSlot(0) != 41 {
		t.Fatalf("PeekSlot = %d", mem.PeekSlot(0))
	}
}

func TestWaitFreeSatisfiesP123UnderRandomSchedules(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		mem := NewWaitFree[int](3)
		h := runWorkload(t, mem, 3, 4, seed, sched.NewRandom(seed*23+9))
		if err := CheckAll(h); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestWaitFreeSatisfiesP123UnderLagger(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		mem := NewWaitFree[int](4)
		h := runWorkload(t, mem, 4, 3, seed, sched.NewLagger(1, 20, seed+4))
		if err := CheckAll(h); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestWaitFreeScanCannotBeStarved is the construction's point: under
// back-to-back writers (the schedule that starves the arrow memory's scans,
// see E7), every scan still completes — by borrowing embedded views.
func TestWaitFreeScanCannotBeStarved(t *testing.T) {
	const n, scans = 4, 30
	mem := NewWaitFree[int](n)
	done := false
	completed := 0
	res, err := sched.Run(sched.Config{
		N: n, Seed: 7, Adversary: sched.NewRandom(3), MaxSteps: 30_000_000,
	}, func(p *sched.Proc) {
		if p.ID() == 0 {
			for k := 0; k < scans; k++ {
				mem.Scan(p)
				completed++
			}
			done = true
			return
		}
		for k := 0; !done; k++ {
			mem.Write(p, k)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v (completed %d/%d scans)", err, completed, scans)
	}
	if !res.Finished[0] || completed != scans {
		t.Fatalf("scanner starved: %d/%d scans", completed, scans)
	}
}

// TestWaitFreeBorrowedViewsHappen verifies the borrow path actually fires
// under contention (otherwise the starvation test would be vacuous).
func TestWaitFreeBorrowedViewsHappen(t *testing.T) {
	const n = 4
	mem := NewWaitFree[int](n)
	done := false
	_, err := sched.Run(sched.Config{
		N: n, Seed: 9, Adversary: sched.NewRandom(5), MaxSteps: 30_000_000,
	}, func(p *sched.Proc) {
		if p.ID() == 0 {
			for k := 0; k < 50; k++ {
				mem.Scan(p)
			}
			done = true
			return
		}
		for k := 0; !done; k++ {
			mem.Write(p, k)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var borrows int64
	for i := 0; i < n; i++ {
		borrows += mem.Borrows(i)
	}
	if borrows == 0 {
		t.Fatal("no scan ever borrowed under sustained writes — borrow path untested")
	}
}

// TestWaitFreeScanIterationBound checks the 2n+1 iteration bound: retries per
// scan never exceed it.
func TestWaitFreeScanIterationBound(t *testing.T) {
	const n = 5
	for seed := int64(0); seed < 20; seed++ {
		mem := NewWaitFree[int](n)
		done := false
		scansDone := 0
		_, err := sched.Run(sched.Config{
			N: n, Seed: seed, Adversary: sched.NewRandom(seed * 3), MaxSteps: 30_000_000,
		}, func(p *sched.Proc) {
			if p.ID() == 0 {
				for k := 0; k < 20; k++ {
					mem.Scan(p)
					scansDone++
				}
				done = true
				return
			}
			for k := 0; !done; k++ {
				mem.Write(p, k)
			}
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		maxRetries := int64(scansDone * (2*n + 1))
		if got := mem.Retries(0); got > maxRetries {
			t.Fatalf("seed %d: %d retries for %d scans exceeds the 2n+1 bound (%d)", seed, got, scansDone, maxRetries)
		}
	}
}

func TestWaitFreeKindFactory(t *testing.T) {
	m, err := New[int](KindWaitFree, 3, nil, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 3 {
		t.Fatalf("N = %d", m.N())
	}
	if KindWaitFree.String() != "waitfree" {
		t.Fatalf("String = %q", KindWaitFree.String())
	}
}

package scan

import (
	"strings"
	"testing"

	"github.com/dsrepro/consensus/internal/register"
	"github.com/dsrepro/consensus/internal/sched"
)

// runWorkload drives n processes through rounds of scan-then-write on mem
// under the given adversary, recording a HistoryRec. Process j's k-th write
// stores the integer k, so a view value read from slot j *is* the write Seq.
func runWorkload(t *testing.T, mem Memory[int], n, rounds int, seed int64, adv sched.Adversary) *HistoryRec {
	t.Helper()
	h := &HistoryRec{N: n}
	written := make([]int, n) // per-proc write count; owner-only then read after Run
	_, err := sched.Run(sched.Config{N: n, Seed: seed, Adversary: adv, MaxSteps: 2_000_000}, func(p *sched.Proc) {
		i := p.ID()
		for k := 0; k < rounds; k++ {
			start := p.Now()
			view := mem.Scan(p)
			end := p.Now()
			rec := ScanRec{Proc: i, View: append([]int(nil), view...), Start: start, End: end}
			rec.View[i] = written[i] // own slot: last own write
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

func TestArrowSatisfiesP123UnderRandomSchedules(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		mem := NewArrow[int](3, register.DirectFactory)
		h := runWorkload(t, mem, 3, 4, seed, sched.NewRandom(seed*7+1))
		if err := CheckAll(h); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestArrowOverBloomRegistersSatisfiesP123(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		mem := NewArrow[int](3, register.BloomFactory)
		h := runWorkload(t, mem, 3, 3, seed, sched.NewRandom(seed*13+5))
		if err := CheckAll(h); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestArrowSatisfiesP123UnderLagger(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		mem := NewArrow[int](4, register.DirectFactory)
		h := runWorkload(t, mem, 4, 3, seed, sched.NewLagger(0, 25, seed+2))
		if err := CheckAll(h); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestSeqSnapSatisfiesP123(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		mem := NewSeqSnap[int](3)
		h := runWorkload(t, mem, 3, 4, seed, sched.NewRandom(seed*11+3))
		if err := CheckAll(h); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestCollectViolatesSnapshotProperties: the single-collect baseline must be
// caught by the checker on at least one seed — this is the negative control
// showing the property checker has teeth.
func TestCollectViolatesSnapshotProperties(t *testing.T) {
	violated := false
	for seed := int64(0); seed < 300 && !violated; seed++ {
		mem := NewCollect[int](4)
		h := runWorkload(t, mem, 4, 6, seed, sched.NewRandom(seed*3+7))
		if err := CheckP2(h); err != nil {
			violated = true
			break
		}
		if err := CheckP3(h); err != nil {
			violated = true
			break
		}
	}
	if !violated {
		t.Fatal("single-collect memory passed P2 and P3 on 300 adversarial schedules; checker (or workload) is too weak")
	}
}

// TestCollectStillRegular: the single collect must still satisfy P1 — every
// returned value comes from a potentially coexisting write.
func TestCollectStillRegular(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		mem := NewCollect[int](4)
		h := runWorkload(t, mem, 4, 6, seed, sched.NewRandom(seed*3+7))
		if err := CheckP1(h); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestArrowScanSeesOwnLastWrite(t *testing.T) {
	mem := NewArrow[int](2, register.DirectFactory)
	_, err := sched.Run(sched.Config{N: 2, Seed: 1}, func(p *sched.Proc) {
		if p.ID() != 0 {
			return
		}
		mem.Write(p, 41)
		view := mem.Scan(p)
		if view[0] != 41 {
			t.Errorf("own slot = %d, want 41", view[0])
		}
		if view[1] != 0 {
			t.Errorf("unwritten slot = %d, want zero value", view[1])
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestArrowWriteIsWaitFreeUnderScanStorm(t *testing.T) {
	// One writer, three scanners that scan forever. The writer must finish
	// its writes regardless (write is wait-free); the run ends on budget with
	// only the writer finished.
	mem := NewArrow[int](4, register.DirectFactory)
	res, _ := sched.Run(sched.Config{N: 4, Seed: 9, MaxSteps: 50_000, Adversary: sched.NewRandom(4)}, func(p *sched.Proc) {
		if p.ID() == 0 {
			for k := 1; k <= 20; k++ {
				mem.Write(p, k)
			}
			return
		}
		for {
			mem.Scan(p)
		}
	})
	if !res.Finished[0] {
		t.Fatal("writer did not finish: write is not wait-free")
	}
}

func TestArrowScanRetriesUnderWriterContention(t *testing.T) {
	// A scanner interleaved with a busy writer must retry at least once under
	// a schedule that alternates write steps into the scan window.
	mem := NewArrow[int](2, register.DirectFactory)
	_, _ = sched.Run(sched.Config{N: 2, Seed: 3, MaxSteps: 20_000, Adversary: sched.NewRandom(8)}, func(p *sched.Proc) {
		if p.ID() == 0 {
			for k := 0; k < 200; k++ {
				mem.Write(p, k)
			}
			return
		}
		for k := 0; k < 20; k++ {
			mem.Scan(p)
		}
	})
	if mem.Retries(1) == 0 {
		t.Fatal("scanner never retried under writer contention (suspicious schedule)")
	}
}

func TestSeqSnapMaxSeqGrowsWithoutBound(t *testing.T) {
	mem := NewSeqSnap[int](2)
	_, err := sched.Run(sched.Config{N: 2, Seed: 1}, func(p *sched.Proc) {
		for k := 0; k < 100; k++ {
			mem.Write(p, k)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := mem.MaxSeq(); got != 100 {
		t.Fatalf("MaxSeq = %d, want 100", got)
	}
}

func TestNewFactory(t *testing.T) {
	for _, k := range []Kind{KindArrow, KindSeqSnap, KindCollect} {
		m, err := New[int](k, 3, nil, false, false)
		if err != nil {
			t.Fatalf("New(%v): %v", k, err)
		}
		if m.N() != 3 {
			t.Fatalf("New(%v).N() = %d, want 3", k, m.N())
		}
		if k.String() == "" || strings.HasPrefix(k.String(), "Kind(") {
			t.Fatalf("Kind %d has no name", int(k))
		}
	}
	if _, err := New[int](Kind(99), 3, nil, false, false); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}

func TestWriteTableRejectsMalformedHistories(t *testing.T) {
	h := &HistoryRec{
		N:      1,
		Writes: []WriteRec{{Proc: 0, Seq: 2, Start: 0, End: 1}},
	}
	if err := CheckP1(h); err == nil {
		t.Fatal("expected error for out-of-order Seq")
	}
	h = &HistoryRec{
		N: 1,
		Writes: []WriteRec{
			{Proc: 0, Seq: 1, Start: 0, End: 5},
			{Proc: 0, Seq: 2, Start: 3, End: 8},
		},
	}
	if err := CheckP1(h); err == nil {
		t.Fatal("expected error for overlapping same-process writes")
	}
}

func TestCheckersCatchHandCraftedViolations(t *testing.T) {
	// P1: scan returns a write that is two writes stale.
	h := &HistoryRec{
		N: 1,
		Writes: []WriteRec{
			{Proc: 0, Seq: 1, Start: 0, End: 1},
			{Proc: 0, Seq: 2, Start: 2, End: 3},
		},
		Scans: []ScanRec{{Proc: 0, View: []int{1}, Start: 10, End: 11}},
	}
	if err := CheckP1(h); err == nil {
		t.Fatal("P1 checker missed a stale read")
	}

	// P2: scan pairs a stale write of proc 0 with a much later write of proc 1.
	h = &HistoryRec{
		N: 2,
		Writes: []WriteRec{
			{Proc: 0, Seq: 1, Start: 0, End: 1},
			{Proc: 0, Seq: 2, Start: 4, End: 5},
			{Proc: 1, Seq: 1, Start: 10, End: 11},
		},
		Scans: []ScanRec{{Proc: 1, View: []int{1, 1}, Start: 0, End: 20}},
	}
	if err := CheckP2(h); err == nil {
		t.Fatal("P2 checker missed a non-coexisting pair")
	}

	// P3: two incomparable views.
	h = &HistoryRec{
		N: 2,
		Writes: []WriteRec{
			{Proc: 0, Seq: 1, Start: 0, End: 0},
			{Proc: 1, Seq: 1, Start: 1, End: 1},
		},
		Scans: []ScanRec{
			{Proc: 0, View: []int{1, 0}, Start: 2, End: 3},
			{Proc: 1, View: []int{0, 1}, Start: 2, End: 3},
		},
	}
	if err := CheckP3(h); err == nil {
		t.Fatal("P3 checker missed incomparable views")
	}
}

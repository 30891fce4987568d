package register

import (
	"testing"

	"github.com/dsrepro/consensus/internal/sched"
)

// TestNativeModeRoundTrip pins the storage-mode switch: values survive
// SetNative(true), native reads/writes/peeks/resets, and the fold back to
// mutex storage; a Direct2W built native keeps its initial bit and resets.
func TestNativeModeRoundTrip(t *testing.T) {
	r := NewSWMR(0, 10)
	r.SetNative(true)
	if got := r.Peek(); got != 10 {
		t.Fatalf("native Peek after switch = %d, want 10", got)
	}
	r.Reset(20)
	if got := r.Peek(); got != 20 {
		t.Fatalf("native Peek after Reset = %d, want 20", got)
	}
	r.SetNative(false)
	if got := r.Peek(); got != 20 {
		t.Fatalf("mutex Peek after fold-back = %d, want 20", got)
	}

	d := NewDirect2W(0, 1, true, true)
	if !d.Peekish() {
		t.Fatal("native Direct2W lost its initial bit")
	}
	d.Reset(false)
	if d.Peekish() {
		t.Fatal("native Direct2W lost the reset")
	}
}

// Peekish reads the Direct2W bit without a process context (test-only).
func (r *Direct2W) Peekish() bool {
	if r.native {
		return r.cell.v.Load()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.v
}

// TestNativeRegistersUnderRealConcurrency drives every register type from
// racing goroutines on the native substrate: each owner publishes a strictly
// increasing sequence and readers must only ever observe published values,
// never torn or stale-beyond-owner ones. Run with -race this also proves the
// lock-free storage paths are data-race-free.
func TestNativeRegistersUnderRealConcurrency(t *testing.T) {
	const n, writes = 4, 200
	regs := make([]*ToggledSWMR[int], n)
	for i := range regs {
		regs[i] = NewToggledSWMR(i, 0, true)
	}
	d2w := NewDirect2W(0, 1, false, true)
	bloom := NewBloom2W(2, 3, false, true)
	mrmw := NewMRMW(n, 0, true)

	res, err := sched.NewNative(sched.NativeOptions{}).Run(sched.Config{N: n, Seed: 9},
		func(p *sched.Proc) {
			id := p.ID()
			last := make([]int, n)
			for k := 1; k <= writes; k++ {
				regs[id].Write(p, k)
				for j := 0; j < n; j++ {
					got := regs[j].Read(p).Val
					if got < last[j] || got > writes {
						t.Errorf("reader %d saw register %d go backwards or out of range: %d after %d", id, j, got, last[j])
						return
					}
					last[j] = got
				}
				switch id {
				case 0, 1:
					d2w.Write(p, k%2 == 0)
					d2w.Read(p)
				case 2, 3:
					bloom.Write(p, k%2 == 1)
					bloom.Read(p)
				}
				mrmw.Write(p, id*writes+k)
				if got := mrmw.Read(p); got < 0 || got > (n-1)*writes+writes {
					t.Errorf("MRMW returned unpublished value %d", got)
					return
				}
			}
		})
	if err != nil {
		t.Fatalf("native run: %v", err)
	}
	for i, f := range res.Finished {
		if !f {
			t.Fatalf("process %d did not finish", i)
		}
	}
}

package scan

import (
	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/obs/prof"
	"github.com/dsrepro/consensus/internal/obs/space"
	"github.com/dsrepro/consensus/internal/pad"
	"github.com/dsrepro/consensus/internal/register"
	"github.com/dsrepro/consensus/internal/sched"
)

// WaitFree is a bounded, wait-free atomic snapshot, after Afek, Attiya,
// Dolev, Gafni, Merritt and Shavit ("Atomic Snapshots of Shared Memory") —
// the successor construction, by an overlapping author set, to this paper's
// non-wait-free §2 scannable memory. It is included as the natural
// "extensions" item: the consensus protocol runs unchanged over it, and its
// scans cannot be starved by writers (contrast experiment E7).
//
// Structure (single-writer registers only, all bounded):
//
//   - R_i holds (value, embedded view, toggle, handshake bits p_i[1..n]).
//   - For every pair, scanner i owns a handshake bit h_i[j].
//   - update_i(v): take an embedded snapshot d := Scan(); for every j read
//     h_j[i] and set p_i[j] := ¬h_j[i]; publish (v, d, ¬toggle, p) in one
//     atomic write.
//   - scan_i: repeat { for every j: read R_j and equalize h_i[j] := p_j[i]
//     ("shake hands"); double collect; writer j moved iff p_j[i] ≠ h_i[j]
//     (a latch — further writes keep it set, so no ABA) or its toggle
//     changed between the collects (catches the one write per iteration
//     that straddles the handshake). If no writer moved, the second collect
//     is a snapshot. Otherwise count a move event per moved writer; on a
//     writer's second event, borrow its embedded view. }
//
// Why borrowing is safe: every observed move event is caused by a write that
// *landed* inside the scan. A writer's second event is caused by a later
// write of the same (sequential) writer, whose embedded Scan began after the
// first event's write completed — i.e. entirely within this scan — so its
// embedded view is a snapshot valid inside this scan's interval.
//
// Why it is wait-free: every retried iteration fires at least one move
// event, and a writer is borrowed from at its second event, so a scan
// finishes within at most 2n+1 iterations.
type WaitFree[T any] struct {
	n     int
	sink  *obs.Sink
	prof  *prof.Profiler
	regs  []*register.SWMR[wfRec[T]]
	hands [][]*register.SWMR[bool] // hands[i][j]: scanner i's bit toward writer j
	local []T                      // local[i]: last value written by i (owner-only)

	// writer-local mirrors (owner-only access)
	toggles []bool
	pvecs   [][]bool

	// per-pid scan scratch (owner-only access): move-event counters, handshake
	// mirror, the two collect buffers, and the reused result buffer (see
	// Memory.Scan).
	events [][]int
	myHand [][]bool
	s1, s2 [][]wfRec[T]
	view   [][]T

	retries []pad.Int64
	borrows []pad.Int64
}

type wfRec[T any] struct {
	val    T
	view   []T // immutable once published
	toggle bool
	p      []bool // immutable once published
}

// NewWaitFree builds a wait-free snapshot for n processes.
func NewWaitFree[T any](n int) *WaitFree[T] {
	w := &WaitFree[T]{
		n:       n,
		regs:    make([]*register.SWMR[wfRec[T]], n),
		hands:   make([][]*register.SWMR[bool], n),
		local:   make([]T, n),
		toggles: make([]bool, n),
		pvecs:   make([][]bool, n),
		events:  make([][]int, n),
		myHand:  make([][]bool, n),
		s1:      make([][]wfRec[T], n),
		s2:      make([][]wfRec[T], n),
		view:    make([][]T, n),
		retries: make([]pad.Int64, n),
		borrows: make([]pad.Int64, n),
	}
	for i := 0; i < n; i++ {
		w.regs[i] = register.NewSWMR(i, wfRec[T]{p: make([]bool, n)})
		w.hands[i] = make([]*register.SWMR[bool], n)
		w.pvecs[i] = make([]bool, n)
		w.events[i] = make([]int, n)
		w.myHand[i] = make([]bool, n)
		w.s1[i] = make([]wfRec[T], n)
		w.s2[i] = make([]wfRec[T], n)
		w.view[i] = make([]T, n)
		for j := 0; j < n; j++ {
			if i != j {
				w.hands[i][j] = register.NewSWMR(i, false)
			}
		}
	}
	return w
}

// Reset implements Memory: zero values, empty views, cleared toggles and
// handshake bits. The published p-vectors are reallocated rather than cleared
// in place: records already handed out to readers treat them as immutable.
func (w *WaitFree[T]) Reset() {
	var zero T
	for i := 0; i < w.n; i++ {
		w.regs[i].Reset(wfRec[T]{p: make([]bool, w.n)})
		w.local[i] = zero
		w.toggles[i] = false
		w.pvecs[i] = make([]bool, w.n)
		w.retries[i].Store(0)
		w.borrows[i].Store(0)
		for j := 0; j < w.n; j++ {
			if i != j {
				w.hands[i][j].Reset(false)
			}
		}
	}
}

// N implements Memory.
func (w *WaitFree[T]) N() int { return w.n }

// Install implements Memory. Handshake-bit traffic is counted (not
// recorded): one scan iteration touches n-1 handshake registers and would
// drown a trace. The space meter gets the n value registers on the register
// layer, and the construction's bounded snapshot machinery on the scan layer
// — per register one toggle bit, n handshake p-bits, one embedded view slot
// per process, plus the n(n-1) handshake-bit registers. The payload width of
// the values is declared by the protocol that owns the entries.
func (w *WaitFree[T]) Install(in register.Instruments) {
	w.sink, w.prof = in.Sink, in.Profiler
	n := int64(w.n)
	for i := 0; i < w.n; i++ {
		w.regs[i].Install(in, space.LayerRegister)
		for j := 0; j < w.n; j++ {
			if i != j {
				w.hands[i][j].Install(in, space.LayerScan)
			}
		}
	}
	// toggle + p-vector + embedded view per record, one bit per handshake reg.
	in.Space.AddWords(space.LayerScan, n*(1+n+n)+n*(n-1))
	in.Space.DeclareDomain(space.LayerScan, 2)
}

// Write implements Memory (the construction's update): embedded snapshot,
// handshake flips, one atomic publish. Wait-free.
func (w *WaitFree[T]) Write(p *sched.Proc, v T) {
	i := p.ID()
	// Scan returns the per-pid reused buffer; the embedded view published in
	// the record must stay immutable, so copy it out.
	view := append([]T(nil), w.Scan(p)...)
	newP := make([]bool, w.n)
	for j := 0; j < w.n; j++ {
		if j == i {
			continue
		}
		newP[j] = !w.hands[j][i].Read(p)
	}
	w.toggles[i] = !w.toggles[i]
	w.regs[i].Write(p, wfRec[T]{val: v, view: view, toggle: w.toggles[i], p: newP})
	w.local[i] = v
	w.pvecs[i] = newP
	if w.prof.Enabled() {
		w.prof.NoteWrite(i, p.Now(), p.Steps())
	}
}

// Scan implements Memory. Wait-free: at most 2n+1 handshake/double-collect
// iterations before a clean return or a borrow.
func (w *WaitFree[T]) Scan(p *sched.Proc) []T {
	i := p.ID()
	events, myHand := w.events[i], w.myHand[i]
	c1, c2 := w.s1[i], w.s2[i]
	for j := range events {
		events[j] = 0
	}
	var tries, passStart int64
	for {
		if w.prof.Enabled() {
			passStart = p.Steps()
		}
		// Handshake: equalize my bit with each writer's current bit.
		for j := 0; j < w.n; j++ {
			if j == i {
				continue
			}
			rec := w.regs[j].Read(p)
			myHand[j] = rec.p[i]
			w.hands[i][j].Write(p, myHand[j])
			w.sink.Count(obs.ScanHandshake)
		}
		for j := 0; j < w.n; j++ {
			if j != i {
				c1[j] = w.regs[j].Read(p)
			}
		}
		for j := 0; j < w.n; j++ {
			if j != i {
				c2[j] = w.regs[j].Read(p)
			}
		}
		clean := true
		dirtyAt, dirtyHand := -1, false
		for j := 0; j < w.n; j++ {
			if j == i {
				continue
			}
			handMoved := c1[j].p[i] != myHand[j] || c2[j].p[i] != myHand[j]
			moved := handMoved || c1[j].toggle != c2[j].toggle
			if !moved {
				continue
			}
			clean = false
			if dirtyAt < 0 {
				dirtyAt, dirtyHand = j, handMoved
			}
			events[j]++
			if events[j] >= 2 && c2[j].view != nil {
				// Borrow: c2[j]'s embedded view was taken entirely within
				// this scan.
				w.borrows[i].Add(1)
				w.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.ScanBorrow, Value: int64(j)})
				w.sink.Observe(obs.HistScanRetries, tries)
				out := w.view[i]
				copy(out, c2[j].view)
				if w.prof.Enabled() {
					// A borrowed view is a completed scan for causal purposes:
					// the reader just absorbed j's embedded snapshot.
					w.prof.CleanScan(i, p.Now(), p.Steps())
				}
				return out
			}
		}
		if clean {
			w.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.ScanClean, Value: tries})
			w.sink.Observe(obs.HistScanRetries, tries)
			out := w.view[i]
			for j := 0; j < w.n; j++ {
				if j == i {
					out[j] = w.local[i]
				} else {
					out[j] = c2[j].val
				}
			}
			if w.prof.Enabled() {
				w.prof.CleanScan(i, p.Now(), p.Steps())
			}
			return out
		}
		w.retries[i].Add(1)
		tries++
		w.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.ScanRetry, Value: tries})
		if w.prof.Enabled() {
			reason := prof.BlameToggle
			if dirtyHand {
				reason = prof.BlameHandshake
			}
			w.prof.ScanRetry(i, dirtyAt, reason, p.Steps()-passStart, p.Now())
		}
	}
}

// Retries returns the number of retried scan iterations by pid.
func (w *WaitFree[T]) Retries(pid int) int64 { return w.retries[pid].Load() }

// Borrows returns how many of pid's scans completed by borrowing an embedded
// view.
func (w *WaitFree[T]) Borrows(pid int) int64 { return w.borrows[pid].Load() }

// PeekSlot implements Memory.
func (w *WaitFree[T]) PeekSlot(j int) T { return w.regs[j].Peek().val }

package register

import (
	"fmt"

	"github.com/dsrepro/consensus/internal/sched"
)

// MRMW is a multi-reader multi-writer atomic register built from n SWMR
// atomic registers with unbounded timestamps, after Vitányi and Awerbuch
// ([VA86], cited by the paper). The paper's footnote 3 notes that its arrows
// technique exists precisely "to save on the complexity of constructing
// multi-writer registers"; this type is the construction being avoided,
// provided for completeness and for the substrate test suite.
//
// Each writer owns one SWMR cell holding (value, timestamp, writer id). A
// write collects all cells, picks a timestamp one above the maximum seen, and
// publishes. A read collects all cells and returns the value of the
// lexicographically largest (timestamp, writer id) pair. Timestamps grow
// without bound — the unboundedness that Dolev–Shavit style concurrent
// time-stamp systems (and this paper's arrows) eliminate; MaxTimestamp
// exposes it for the space-accounting tests.
type MRMW[T any] struct {
	n     int
	cells []*SWMR[mrmwCell[T]]
}

type mrmwCell[T any] struct {
	val T
	ts  int64
	wid int
}

// NewMRMW returns an MRMW register for n processes holding init, its SWMR
// cells in native (lock-free) storage when native is set.
func NewMRMW[T any](n int, init T, native bool) *MRMW[T] {
	r := &MRMW[T]{n: n, cells: make([]*SWMR[mrmwCell[T]], n)}
	for i := 0; i < n; i++ {
		r.cells[i] = NewSWMR(i, mrmwCell[T]{})
	}
	// The initial value lives in cell 0 at timestamp 0 with wid -1 so any
	// real write (wid >= 0) supersedes it.
	r.cells[0] = NewSWMR(0, mrmwCell[T]{val: init, wid: -1})
	for _, c := range r.cells {
		c.SetNative(native)
	}
	return r
}

func (r *MRMW[T]) checkPid(pid int) {
	if pid < 0 || pid >= r.n {
		panic(fmt.Sprintf("register: process %d accessed MRMW register of %d processes", pid, r.n))
	}
}

// collectMax returns the lexicographically largest (ts, wid) cell. n atomic
// steps.
func (r *MRMW[T]) collectMax(p *sched.Proc) mrmwCell[T] {
	best := r.cells[0].Read(p)
	for j := 1; j < r.n; j++ {
		c := r.cells[j].Read(p)
		if c.ts > best.ts || (c.ts == best.ts && c.wid > best.wid) {
			best = c
		}
	}
	return best
}

// Write stores v. 2n atomic steps (collect + publish... the publish is one).
func (r *MRMW[T]) Write(p *sched.Proc, v T) {
	r.checkPid(p.ID())
	best := r.collectMax(p)
	r.cells[p.ID()].Write(p, mrmwCell[T]{val: v, ts: best.ts + 1, wid: p.ID()})
}

// Read returns the current value. n atomic steps.
func (r *MRMW[T]) Read(p *sched.Proc) T {
	r.checkPid(p.ID())
	return r.collectMax(p).val
}

// MaxTimestamp returns the largest timestamp published so far — the
// unbounded quantity this construction pays for atomicity.
func (r *MRMW[T]) MaxTimestamp() int64 {
	var m int64
	for _, c := range r.cells {
		if v := c.Peek(); v.ts > m {
			m = v.ts
		}
	}
	return m
}

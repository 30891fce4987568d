// Package scan implements the paper's §2 scannable memory: an n-slot shared
// abstract data type with per-process write and a scan returning a snapshot
// view satisfying regularity (P1), snapshot (P2), and scan serializability
// (P3).
//
// Three implementations are provided:
//
//   - Arrow: the paper's bounded construction from SWMR registers with toggle
//     bits plus pairs of 2W2R "arrow" registers and a double collect.
//   - SeqSnap: an unbounded baseline that tags every write with a monotone
//     sequence number and double-collects until clean; it satisfies P1–P3 but
//     its registers grow without bound (the behaviour the paper eliminates).
//   - Collect: a single-collect baseline that is only regular — it satisfies
//     P1 but can violate P2/P3; it exists as a negative control for the
//     property checker in properties.go.
//
// As in the paper, write is wait-free while scan may retry as long as new
// writes keep completing (it never waits for other scans).
package scan

import (
	"fmt"
	"sync/atomic"

	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/obs/audit"
	"github.com/dsrepro/consensus/internal/obs/prof"
	"github.com/dsrepro/consensus/internal/obs/space"
	"github.com/dsrepro/consensus/internal/pad"
	"github.com/dsrepro/consensus/internal/register"
	"github.com/dsrepro/consensus/internal/sched"
)

// MutTornScan is the scan layer's fault injector: when enabled, Arrow.Scan
// ignores the toggle-bit comparison between its two collects, so a scan
// overlapped by exactly one write returns a torn double collect as if it
// were clean — the bug ProbeScanHandshake exists to catch. Registered as
// "scan.torn".
var MutTornScan atomic.Bool

func init() { audit.RegisterMutation("scan.torn", &MutTornScan) }

// Memory is the scannable-memory abstract data type shared by n processes.
// Slot i is written only by process i; Scan returns one value per slot.
type Memory[T any] interface {
	// Write stores v in the calling process's slot. Wait-free.
	Write(p *sched.Proc, v T)
	// Scan returns a view of all n slots (index = pid). Slot p.ID() is the
	// value the caller last wrote (zero value of T before any write).
	//
	// The returned slice is a per-process buffer owned by the memory: it is
	// valid (and may be mutated by the caller) only until the caller's next
	// Scan on the same memory, which reuses it. Callers retaining a view
	// across scans must copy it first.
	Scan(p *sched.Proc) []T
	// N returns the number of slots.
	N() int
	// PeekSlot returns slot j's current value without a scheduler step or
	// process context — for adversaries, flight dumps and metrics only,
	// never for algorithm logic (which must pay for a scan).
	PeekSlot(j int) T
	// Install installs the run's instruments on the memory and every
	// register beneath it (nil fields detach). Call once per run, before it
	// starts.
	Install(in register.Instruments)
	// Reset restores the memory to its initial state for instance pooling.
	// Call only between runs.
	Reset()
}

// Arrow is the paper's bounded scannable memory (§2.2).
//
// For every ordered pair (i, j), arrows[i][j] is a 2W2R register written by
// scanner i (clearing it to false) and writer j (setting it to true). A scan
// by i clears its arrows, collects all values twice, re-reads its arrows, and
// retries if any arrow was set or any toggle bit changed between the two
// collects. A write by j first sets the arrow in every potential scanner's
// register, then writes its value.
//
// Comparing only the toggle bits between the two collects is sufficient: a
// single intervening write flips the toggle, and two or more intervening
// writes necessarily set the scanner's arrow after it was cleared (the second
// write's arrow-set follows the first write's value-write, which follows the
// scanner's clear).
type Arrow[T any] struct {
	n       int
	factory register.TwoWriterFactory
	sink    *obs.Sink
	mon     *audit.Monitor
	prof    *prof.Profiler
	vals    []*register.ToggledSWMR[T]
	arrows  [][]register.TwoWriter // arrows[i][j], i != j
	local   []T                    // local[i]: last value written by i (owner-only access)

	// c1/c2/view[i] are pid i's double-collect and result buffers, owned by
	// i's goroutine so a steady-state scan performs zero allocations (the
	// returned view is reused; see Memory.Scan).
	c1, c2 [][]register.Toggled[T]
	view   [][]T

	retries []pad.Int64 // per-pid scan retry counts (metrics)

	// epoch selects the dirty-bit retry path (see SetEpoch / scanEpoch). The
	// per-pid scratch below is allocated on first enable and owned by each
	// pid's goroutine, like c1/c2.
	epoch   bool
	epTrip  [][]bool  // epTrip[i][j]: register j tripped in i's last pass
	epArrow [][]bool  // epArrow[i][j]: arrow (i,j) observed set, needs re-clearing
	epHot   [][]int32 // epHot[i][j]: consecutive passes j has tripped
}

// NewArrow builds an Arrow memory for n processes using factory (direct
// atomic 2W2R registers or Bloom's construction) for the arrow registers,
// every register in mutex storage (see SetNative).
func NewArrow[T any](n int, factory register.TwoWriterFactory) *Arrow[T] {
	a := &Arrow[T]{
		n:       n,
		factory: factory,
		vals:    make([]*register.ToggledSWMR[T], n),
		arrows:  make([][]register.TwoWriter, n),
		local:   make([]T, n),
		c1:      make([][]register.Toggled[T], n),
		c2:      make([][]register.Toggled[T], n),
		view:    make([][]T, n),
		retries: make([]pad.Int64, n),
	}
	for i := 0; i < n; i++ {
		a.arrows[i] = make([]register.TwoWriter, n)
		a.c1[i] = make([]register.Toggled[T], n)
		a.c2[i] = make([]register.Toggled[T], n)
		a.view[i] = make([]T, n)
	}
	a.SetNative(false)
	return a
}

// SetNative (re)builds every register beneath the memory in its initial
// state, in the storage mode of the chosen substrate (native: lock-free). It
// is part of construction: call it on a fresh memory, before Install. The
// per-pid scratch buffers need no change: each is owned by one process's
// goroutine on either substrate.
func (a *Arrow[T]) SetNative(on bool) {
	var zero T
	for i := 0; i < a.n; i++ {
		a.vals[i] = register.NewToggledSWMR(i, zero, on)
		for j := 0; j < a.n; j++ {
			if i != j {
				a.arrows[i][j] = a.factory(i, j, false, on)
			}
		}
	}
}

// Reset implements Memory: zero values, cleared toggles and arrows.
func (a *Arrow[T]) Reset() {
	var zero T
	for i := 0; i < a.n; i++ {
		a.vals[i].Reset(zero)
		a.local[i] = zero
		a.retries[i].Store(0)
		for j := 0; j < a.n; j++ {
			if i != j {
				a.arrows[i][j].Reset(false)
			}
		}
	}
}

// N implements Memory.
func (a *Arrow[T]) N() int { return a.n }

// Install implements Memory. The monitor gets the scan handshake probe here
// and the sampled register-regularity probe on every value register; the
// profiler's hooks are strictly passive, every site guarded by Enabled().
// The space meter attributes the n value registers to the register layer and
// the snapshot machinery — one toggle bit per value register plus the n(n-1)
// arrow registers — to the scan layer. The payload width of the values
// themselves is declared by the protocol that owns the entries.
func (a *Arrow[T]) Install(in register.Instruments) {
	a.sink, a.mon, a.prof = in.Sink, in.Monitor, in.Profiler
	for i := 0; i < a.n; i++ {
		a.vals[i].Install(in, space.LayerRegister)
		for j := 0; j < a.n; j++ {
			if i != j {
				a.arrows[i][j].Install(in, space.LayerScan)
			}
		}
	}
	in.Space.AddWords(space.LayerScan, int64(a.n)) // toggle bits
	in.Space.DeclareDomain(space.LayerScan, 2)
}

// SetEpoch selects (or deselects) the dirty-bit epoch retry path for every
// scanner. It changes only the *cost* of retrying scans — views, events and
// probe verdicts keep their semantics — but it does change step counts on
// retry, so it is opt-in: core builds it in for commuting dispatch
// (core.Config.ScanEpoch) and leaves the default path byte-identical to
// previous releases. Part of construction: call it before the first scan.
func (a *Arrow[T]) SetEpoch(on bool) {
	a.epoch = on
	if on && a.epTrip == nil {
		a.epTrip = make([][]bool, a.n)
		a.epArrow = make([][]bool, a.n)
		a.epHot = make([][]int32, a.n)
		for i := 0; i < a.n; i++ {
			a.epTrip[i] = make([]bool, a.n)
			a.epArrow[i] = make([]bool, a.n)
			a.epHot[i] = make([]int32, a.n)
		}
	}
}

// Write implements Memory: set the arrow in every other process's scanner
// register, then publish the value. Wait-free; n atomic steps (2n with Bloom
// arrow registers).
func (a *Arrow[T]) Write(p *sched.Proc, v T) {
	i := p.ID()
	for j := 0; j < a.n; j++ {
		if j != i {
			a.arrows[j][i].Write(p, true)
		}
	}
	a.vals[i].Write(p, v)
	a.local[i] = v
	if a.prof.Enabled() {
		a.prof.NoteWrite(i, p.Now(), p.Steps())
	}
}

// Scan implements Memory: clear arrows, double-collect, re-read arrows, retry
// until a clean pass. Not wait-free, but lock-free in the paper's sense: a
// retry implies some other process completed a new write.
func (a *Arrow[T]) Scan(p *sched.Proc) []T {
	if a.epoch {
		return a.scanEpoch(p)
	}
	i := p.ID()
	v1, v2, out := a.c1[i], a.c2[i], a.view[i]
	var tries, passStart int64
	for {
		if a.prof.Enabled() {
			passStart = p.Steps()
		}
		for j := 0; j < a.n; j++ {
			if j != i {
				a.arrows[i][j].Write(p, false)
			}
		}
		for j := 0; j < a.n; j++ {
			if j != i {
				v1[j] = a.vals[j].Read(p)
			}
		}
		// Second collect, fused with the toggle comparison and the view copy:
		// both are register-local (no scheduler step), so folding them in here
		// makes a clean scan one pass over the collect buffers instead of
		// re-walking them in the check loop and the copy-out loop.
		firstMismatch := a.n
		for j := 0; j < a.n; j++ {
			if j == i {
				continue
			}
			v2[j] = a.vals[j].Read(p)
			out[j] = v2[j].Val
			if firstMismatch == a.n && v1[j].Toggle != v2[j].Toggle {
				firstMismatch = j
			}
		}
		if MutTornScan.Load() {
			firstMismatch = a.n // fault injection: ignore the handshake
		}
		// Arrow re-reads are scheduler steps, so they must happen for exactly
		// the prefix the unfused loop would have checked: every j up to and
		// including the first dirty slot (set arrow or toggle mismatch). The
		// first dirty slot is also the blame culprit: the arrow (or toggle)
		// was tripped by writer j's register.
		clean := true
		dirtyAt, dirtyArrow := -1, false
		for j := 0; j < a.n && clean; j++ {
			if j == i {
				continue
			}
			set := a.arrows[i][j].Read(p)
			if set || j == firstMismatch {
				clean = false
				dirtyAt, dirtyArrow = j, set
			}
		}
		if clean {
			if a.mon.Enabled() {
				// Independent handshake audit: re-compare the two collects'
				// toggle bits (register-local, no scheduler steps). A returning
				// scan whose collects disagree is a torn double collect.
				firstBad := -1
				for j := 0; j < a.n; j++ {
					if j != i && v1[j].Toggle != v2[j].Toggle {
						firstBad = j
						break
					}
				}
				a.mon.ScanHandshake(p.Now(), i, firstBad)
			}
			a.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.ScanClean, Value: tries})
			a.sink.Observe(obs.HistScanRetries, tries)
			out[i] = a.local[i]
			if a.prof.Enabled() {
				a.prof.CleanScan(i, p.Now(), p.Steps())
			}
			return out
		}
		a.retries[i].Add(1)
		tries++
		a.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.ScanRetry, Value: tries})
		if a.prof.Enabled() {
			reason := prof.BlameToggle
			if dirtyArrow {
				reason = prof.BlameArrow
			}
			a.prof.ScanRetry(i, dirtyAt, reason, p.Steps()-passStart, p.Now())
		}
	}
}

// Epoch-path tuning: hotTrips is how many consecutive passes a register must
// trip before the scanner tight-loops on it, and maxHotSettle caps the extra
// settling reads per hot register per pass (each costs one step, so the cap
// bounds the worst case at maxHotSettle·k extra steps for k hot registers).
const (
	hotTrips     = 2
	maxHotSettle = 8
)

// scanEpoch is the dirty-bit retry path (profile-guided: the n=8 blame
// matrix attributes 57.9% of steps to scan-retry burn concentrated on two
// registers, and the classic retry re-pays 4(n-1) steps to re-check n-3
// registers that never moved). Each failed pass records exactly which
// registers tripped — by toggle mismatch or set arrow — and the retry
// re-establishes a first read only for those: it re-clears their arrows,
// re-reads them (tight-looping on persistently hot registers until their
// toggle settles, the backoff-free path), and then runs one *unified* read
// pass over all n-1 registers followed by a full arrow check.
//
// Soundness (the P1–P3 argument, spelled out in DESIGN.md §16): for every
// register j the pair (v1[j], v2[j]) is a valid per-register double collect —
// both reads happen after arrow (i,j) was last cleared, and the final arrow
// check reads it clear, so at most one write of j completed between them and
// the toggle comparison is decisive (P1). All v1 reads precede the unified
// pass and all v2 reads are inside it, so the instant U just before the
// unified pass's first read lies in every register's constancy window: the
// view is the memory state at U, a true snapshot (P2), and scans linearize at
// their U instants (P3). The first pass is step-identical to the classic path
// on success; only retry passes cost differently (≈ 2(n-1)+2k instead of
// 4(n-1) for k tripped registers).
func (a *Arrow[T]) scanEpoch(p *sched.Proc) []T {
	i := p.ID()
	v1, v2, out := a.c1[i], a.c2[i], a.view[i]
	trip, arr, hot := a.epTrip[i], a.epArrow[i], a.epHot[i]
	for j := 0; j < a.n; j++ {
		// First pass: every register is unconfirmed, every arrow needs a clear.
		trip[j] = j != i
		arr[j] = j != i
		hot[j] = 0
	}
	var tries, passStart int64
	for {
		if a.prof.Enabled() {
			passStart = p.Steps()
		}
		// Re-clear only the arrows observed set (all of them on the first pass).
		for j := 0; j < a.n; j++ {
			if arr[j] {
				a.arrows[i][j].Write(p, false)
			}
		}
		// Re-establish the first read of each tripped register. For registers
		// hot across consecutive passes, keep re-reading until the toggle
		// settles: the writer is mid-burst, and one step per extra read is far
		// cheaper than failing the pass and re-paying the unified sweep.
		for j := 0; j < a.n; j++ {
			if !trip[j] {
				continue // v1[j] keeps the confirmed read from the previous pass
			}
			v1[j] = a.vals[j].Read(p)
			if hot[j] >= hotTrips {
				for s := 0; s < maxHotSettle; s++ {
					nv := a.vals[j].Read(p)
					if nv.Toggle == v1[j].Toggle {
						break
					}
					v1[j] = nv
				}
			}
		}
		// Unified confirm pass: one read of every register. The instant before
		// its first read is the scan's linearization point candidate.
		for j := 0; j < a.n; j++ {
			if j == i {
				continue
			}
			v2[j] = a.vals[j].Read(p)
			out[j] = v2[j].Val
			trip[j] = v1[j].Toggle != v2[j].Toggle && !MutTornScan.Load()
		}
		// Full arrow check — every slot, no prefix short-circuit: a retry pass
		// must know the complete tripped set, or an unread dirty arrow would be
		// mistaken for a confirmed register next pass.
		firstTrip, firstArrow := -1, false
		for j := 0; j < a.n; j++ {
			if j == i {
				continue
			}
			arr[j] = a.arrows[i][j].Read(p)
			trip[j] = trip[j] || arr[j]
			if trip[j] && firstTrip < 0 {
				firstTrip, firstArrow = j, arr[j]
			}
		}
		if firstTrip < 0 {
			if a.mon.Enabled() {
				// Independent handshake audit, as on the classic path: v1/v2
				// hold each register's two window reads.
				firstBad := -1
				for j := 0; j < a.n; j++ {
					if j != i && v1[j].Toggle != v2[j].Toggle {
						firstBad = j
						break
					}
				}
				a.mon.ScanHandshake(p.Now(), i, firstBad)
			}
			a.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.ScanClean, Value: tries})
			a.sink.Observe(obs.HistScanRetries, tries)
			out[i] = a.local[i]
			if a.prof.Enabled() {
				a.prof.CleanScan(i, p.Now(), p.Steps())
			}
			return out
		}
		// Failed pass: confirmed registers carry their unified read forward as
		// next pass's first read; tripped ones accumulate heat.
		for j := 0; j < a.n; j++ {
			if j == i {
				continue
			}
			if trip[j] {
				hot[j]++
			} else {
				hot[j] = 0
				v1[j] = v2[j]
			}
		}
		a.retries[i].Add(1)
		tries++
		a.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.ScanRetry, Value: tries})
		if a.prof.Enabled() {
			reason := prof.BlameToggle
			if firstArrow {
				reason = prof.BlameArrow
			}
			a.prof.ScanRetry(i, firstTrip, reason, p.Steps()-passStart, p.Now())
		}
	}
}

// Retries returns the total number of scan retries performed by pid so far.
func (a *Arrow[T]) Retries(pid int) int64 { return a.retries[pid].Load() }

// PeekSlot implements Memory.
func (a *Arrow[T]) PeekSlot(j int) T { return a.vals[j].Peek().Val }

// seqCell is a value stamped with an unbounded sequence number.
type seqCell[T any] struct {
	val T
	seq uint64
}

// SeqSnap is the unbounded sequence-number snapshot baseline: every write
// increments a per-process counter with no bound, and a scan double-collects
// until two consecutive collects see identical sequence vectors.
type SeqSnap[T any] struct {
	n     int
	sink  *obs.Sink
	prof  *prof.Profiler
	spc   *space.Meter
	vals  []*register.SWMR[seqCell[T]]
	local []T
	seq   []uint64 // next sequence number per writer (owner-only access)

	// c1/c2/view[i] are pid i's double-collect and result buffers (owner-only
	// access); the returned view is reused across scans (see Memory.Scan).
	c1, c2 [][]seqCell[T]
	view   [][]T

	retries []pad.Int64
}

// NewSeqSnap builds a SeqSnap memory for n processes.
func NewSeqSnap[T any](n int) *SeqSnap[T] {
	s := &SeqSnap[T]{
		n:       n,
		vals:    make([]*register.SWMR[seqCell[T]], n),
		local:   make([]T, n),
		seq:     make([]uint64, n),
		c1:      make([][]seqCell[T], n),
		c2:      make([][]seqCell[T], n),
		view:    make([][]T, n),
		retries: make([]pad.Int64, n),
	}
	for i := 0; i < n; i++ {
		s.vals[i] = register.NewSWMR(i, seqCell[T]{})
		s.c1[i] = make([]seqCell[T], n)
		s.c2[i] = make([]seqCell[T], n)
		s.view[i] = make([]T, n)
	}
	return s
}

// Reset implements Memory: zero values, sequence numbers rewound.
func (s *SeqSnap[T]) Reset() {
	var zero T
	for i := 0; i < s.n; i++ {
		s.vals[i].Reset(seqCell[T]{})
		s.local[i] = zero
		s.seq[i] = 0
		s.retries[i].Store(0)
	}
}

// N implements Memory.
func (s *SeqSnap[T]) N() int { return s.n }

// Install implements Memory: value registers on the register layer, the
// per-register sequence number — the unbounded word this baseline pays for
// its snapshots — on the scan layer, with its growth measured online in
// Write.
func (s *SeqSnap[T]) Install(in register.Instruments) {
	s.sink, s.prof, s.spc = in.Sink, in.Profiler, in.Space
	for _, r := range s.vals {
		r.Install(in, space.LayerRegister)
	}
	in.Space.AddWords(space.LayerScan, int64(s.n)) // sequence numbers
	in.Space.DeclareUnbounded(space.LayerScan)
}

// Write implements Memory. One atomic step; the sequence number grows without
// bound (this is the point of the baseline).
func (s *SeqSnap[T]) Write(p *sched.Proc, v T) {
	i := p.ID()
	s.seq[i]++
	s.spc.NoteValue(space.LayerScan, int64(s.seq[i]))
	s.vals[i].Write(p, seqCell[T]{val: v, seq: s.seq[i]})
	s.local[i] = v
	if s.prof.Enabled() {
		s.prof.NoteWrite(i, p.Now(), p.Steps())
	}
}

// Scan implements Memory: double-collect until two consecutive collects agree
// on every sequence number.
func (s *SeqSnap[T]) Scan(p *sched.Proc) []T {
	i := p.ID()
	prev, cur := s.c1[i], s.c2[i]
	for j := 0; j < s.n; j++ {
		if j != i {
			prev[j] = s.vals[j].Read(p)
		}
	}
	out := s.view[i]
	var tries, passStart int64
	for {
		if s.prof.Enabled() {
			passStart = p.Steps()
		}
		// Collect, fused with the sequence comparison and the view copy (both
		// register-local): a clean scan finishes in this single pass. The
		// first sequence mismatch is the blame culprit.
		clean := true
		dirtyAt := -1
		for j := 0; j < s.n; j++ {
			if j == i {
				continue
			}
			cur[j] = s.vals[j].Read(p)
			out[j] = cur[j].val
			if cur[j].seq != prev[j].seq {
				clean = false
				if dirtyAt < 0 {
					dirtyAt = j
				}
			}
		}
		if clean {
			s.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.ScanClean, Value: tries})
			s.sink.Observe(obs.HistScanRetries, tries)
			out[i] = s.local[i]
			if s.prof.Enabled() {
				s.prof.CleanScan(i, p.Now(), p.Steps())
			}
			return out
		}
		s.retries[i].Add(1)
		tries++
		s.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.ScanRetry, Value: tries})
		if s.prof.Enabled() {
			s.prof.ScanRetry(i, dirtyAt, prof.BlameSeq, p.Steps()-passStart, p.Now())
		}
		prev, cur = cur, prev
		s.c1[i], s.c2[i] = prev, cur
	}
}

// Retries returns the total number of scan retries performed by pid so far.
func (s *SeqSnap[T]) Retries(pid int) int64 { return s.retries[pid].Load() }

// PeekSlot implements Memory.
func (s *SeqSnap[T]) PeekSlot(j int) T { return s.vals[j].Peek().val }

// MaxSeq returns the largest sequence number written so far — the
// space-accounting hook showing this implementation is unbounded.
func (s *SeqSnap[T]) MaxSeq() uint64 {
	var m uint64
	for _, r := range s.vals {
		if c := r.Peek(); c.seq > m {
			m = c.seq
		}
	}
	return m
}

// Collect is the single-collect baseline: a "scan" is one read of each slot
// with no consistency check. It is regular (P1) but not a snapshot (P2/P3
// can fail). It exists as a negative control proving the property checker
// can detect violations.
type Collect[T any] struct {
	n     int
	vals  []*register.SWMR[T]
	local []T
	view  [][]T // per-pid reused result buffer (see Memory.Scan)
}

// NewCollect builds a Collect memory for n processes.
func NewCollect[T any](n int) *Collect[T] {
	c := &Collect[T]{
		n:     n,
		vals:  make([]*register.SWMR[T], n),
		local: make([]T, n),
		view:  make([][]T, n),
	}
	for i := 0; i < n; i++ {
		c.vals[i] = register.NewSWMR[T](i, *new(T))
		c.view[i] = make([]T, n)
	}
	return c
}

// Reset implements Memory.
func (c *Collect[T]) Reset() {
	var zero T
	for i := 0; i < c.n; i++ {
		c.vals[i].Reset(zero)
		c.local[i] = zero
	}
}

// N implements Memory.
func (c *Collect[T]) N() int { return c.n }

// PeekSlot implements Memory.
func (c *Collect[T]) PeekSlot(j int) T { return c.vals[j].Peek() }

// Install implements Memory on the value registers (the single-collect scan
// has no retries of its own to report and no snapshot machinery to account).
func (c *Collect[T]) Install(in register.Instruments) {
	for _, r := range c.vals {
		r.Install(in, space.LayerRegister)
	}
}

// Write implements Memory. One atomic step.
func (c *Collect[T]) Write(p *sched.Proc, v T) {
	c.vals[p.ID()].Write(p, v)
	c.local[p.ID()] = v
}

// Scan implements Memory: one read per slot, no retry.
func (c *Collect[T]) Scan(p *sched.Proc) []T {
	i := p.ID()
	out := c.view[i]
	for j := 0; j < c.n; j++ {
		if j == i {
			out[j] = c.local[i]
		} else {
			out[j] = c.vals[j].Read(p)
		}
	}
	return out
}

// Kind names a Memory implementation for configuration surfaces.
type Kind int

// Memory implementation kinds.
const (
	KindArrow Kind = iota + 1
	KindSeqSnap
	KindCollect
	KindWaitFree
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindArrow:
		return "arrow"
	case KindSeqSnap:
		return "seqsnap"
	case KindCollect:
		return "collect"
	case KindWaitFree:
		return "waitfree"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// New builds a Memory of the given kind for n processes, every register in
// native (lock-free) storage when native is set. The factory is used only by
// KindArrow (pass nil for the others to get direct registers); epoch selects
// the Arrow's dirty-bit retry path (see Arrow.SetEpoch), which the other
// kinds do not have.
func New[T any](kind Kind, n int, factory register.TwoWriterFactory, native, epoch bool) (Memory[T], error) {
	switch kind {
	case KindArrow:
		if factory == nil {
			factory = register.DirectFactory
		}
		a := NewArrow[T](n, factory)
		if native {
			a.SetNative(true)
		}
		a.SetEpoch(epoch)
		return a, nil
	case KindSeqSnap:
		s := NewSeqSnap[T](n)
		nativeRegs(native, s.vals)
		return s, nil
	case KindCollect:
		c := NewCollect[T](n)
		nativeRegs(native, c.vals)
		return c, nil
	case KindWaitFree:
		w := NewWaitFree[T](n)
		nativeRegs(native, w.regs)
		for _, row := range w.hands {
			nativeRegs(native, row)
		}
		return w, nil
	default:
		return nil, fmt.Errorf("scan: unknown memory kind %d", int(kind))
	}
}

// nativeRegs puts every register of regs (skipping the nil diagonal of a
// pairwise matrix) into native storage when native is set.
func nativeRegs[V any](native bool, regs []*register.SWMR[V]) {
	for _, r := range regs {
		if r != nil {
			r.SetNative(native)
		}
	}
}

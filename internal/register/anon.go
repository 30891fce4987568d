package register

import (
	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/obs/space"
	"github.com/dsrepro/consensus/internal/sched"
)

// DirectMRMW is a direct atomic model of a multi-writer multi-reader
// register: any process may read or write, one operation is one atomic step.
// It is the primitive of Gelashvili's anonymous-process setting ("On the
// Optimal Space Complexity of Consensus for Anonymous Processes"), where
// registers carry no ownership and protocols may not index them — or their
// payloads — by process id. Unlike MRMW (the Vitányi–Awerbuch construction
// from pid-owned SWMR cells), it deliberately has no owner or party check
// and no per-process structure; anonymity is enforced by construction in the
// protocol that uses it.
//
// Storage mirrors SWMR: a mutex-guarded value under the deterministic
// substrate, a padded atomic cell in native mode.
type DirectMRMW[T any] struct {
	fp    int64 // footprint key for commuting dispatch
	sink  *obs.Sink
	space spaceMark
	store[T]
}

// NewDirectMRMW returns a multi-writer register initialized to init, with
// native (lock-free) storage when native is set, so lazily grown register
// files match the substrate of the run that grows them.
func NewDirectMRMW[T any](init T, native bool) *DirectMRMW[T] {
	r := &DirectMRMW[T]{fp: sched.NewFootprintKey()}
	r.v = init
	r.setNative(native)
	return r
}

// Install implements the per-run instrument seam (at run start, or at
// creation time for lazily grown registers): the sink, and the space meter
// declaring one physical register under layer l.
func (r *DirectMRMW[T]) Install(in Instruments, l space.Layer) {
	r.sink = in.Sink
	r.space.set(in.Space, l, 1)
}

// Read returns the register's current value. One atomic step.
func (r *DirectMRMW[T]) Read(p *sched.Proc) T {
	p.DeclareRead(r.fp)
	p.Step()
	r.sink.Emit(obs.Event{Step: p.Now(), Pid: p.ID(), Kind: obs.RegMRMWRead, Value: int64(p.ID())})
	return r.load()
}

// Write stores v. One atomic step. Any process may write.
func (r *DirectMRMW[T]) Write(p *sched.Proc, v T) {
	p.DeclareWrite(r.fp)
	p.Step()
	r.sink.Emit(obs.Event{Step: p.Now(), Pid: p.ID(), Kind: obs.RegMRMWWrite, Value: int64(p.ID())})
	r.space.markWrite()
	r.put(v)
}

// Peek returns the current value without a scheduler step or process context
// (test oracles and flight dumps only).
func (r *DirectMRMW[T]) Peek() T { return r.load() }

// Reset restores the register to the initial value v between runs (pooling
// path only).
func (r *DirectMRMW[T]) Reset(v T) { r.put(v) }

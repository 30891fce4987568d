package sched

import (
	"math/rand"
	"sync"
)

// The process and adversary random sources draw exactly the stream of
// math/rand.NewSource (DESIGN.md §4), but seed lazily. The stdlib source is
// an additive lagged-Fibonacci generator over 607 words; seeding it runs
// 1,841 steps of the Lehmer LCG x → 48271·x mod (2³¹−1) to fill all 607
// words up front, which costs far more than the few dozen draws a short
// consensus instance takes. Here slot i's three seed words are computed by
// jumping the LCG straight to x₀·48271^(21+3i+j), and each slot is filled
// only when the generator first reads it.

const (
	rngLen   = 607
	rngTap   = 273
	rngFresh = rngLen - rngTap // draws that find their feed slot unseeded
	int32max = 1<<31 - 1
	lcgMul   = 48271
)

var (
	// lcgPow[j] is 48271^(21+j) mod (2³¹−1): slot i's seed words are x₀
	// times lcgPow[3i], lcgPow[3i+1] and lcgPow[3i+2].
	lcgPow [3 * rngLen]uint64

	// rngCooked is math/rand's table of the same name, which it XORs into
	// the seed words.
	rngCooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for i := 0; i < 21; i++ {
		p = p * lcgMul % int32max
	}
	for j := range lcgPow {
		lcgPow[j] = p
		p = p * lcgMul % int32max
	}

	// Recover rngCooked from the first 607 outputs of one stdlib source.
	// Draw k adds tap slot (606−k) into feed slot (333−k) mod 607 and
	// returns the sum. From draw 273 on, the tap slot holds output k−273
	// and the feed slot is still unmodified, so v[feed] = out[k]−out[k−273];
	// that yields slots 0..60 and 334..606. Each earlier draw sums two
	// unmodified slots, the tap one of which is then known.
	ref := rand.NewSource(1).(rand.Source64)
	var out, v [rngLen]int64
	for k := range out {
		out[k] = int64(ref.Uint64())
	}
	feed := func(k int) int { return (rngFresh - 1 - k + rngLen) % rngLen }
	for k := rngTap; k < rngLen; k++ {
		v[feed(k)] = out[k] - out[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		v[feed(k)] = out[k] - v[feed(k+rngFresh)]
	}
	for i := range rngCooked {
		rngCooked[i] = v[i] ^ seedWord(1, i)
	}
}

// seedWord is slot i's value before rngCooked is mixed in, for normalized
// seed x0.
func seedWord(x0 uint64, i int) int64 {
	w := lcgPow[3*i : 3*i+3]
	return int64(x0*w[0]%int32max)<<40 ^ int64(x0*w[1]%int32max)<<20 ^ int64(x0*w[2]%int32max)
}

// lazySource is a math/rand.Source64 whose output equals
// rand.NewSource(seed)'s draw for draw. Seed costs a few stores; each of the
// first 334 draws fills the slots it reads. Every slot is written before it
// is read, so reseeding a used source needs no clearing.
type lazySource struct {
	x0    uint64 // normalized seed in [1, 2³¹−1)
	fresh int    // draws left whose feed slot is still unseeded
	tap   int
	feed  int
	vec   [rngLen]int64
}

// Seed implements rand.Source with math/rand's seed normalization.
func (s *lazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.tap, s.feed, s.fresh = 0, rngFresh, rngFresh
}

// Int63 implements rand.Source. It repeats Uint64's body instead of calling
// it: with the fill branch that body is too large to inline, and Int63 is
// the draw behind every rand.Rand method but Uint64 — the random adversary
// takes one per scheduler step — where a second call would cost about a
// fifth of an Intn.
func (s *lazySource) Int63() int64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.fresh > 0 {
		s.fill()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x & (1<<63 - 1)
}

// Uint64 implements rand.Source64.
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.fresh > 0 {
		s.fill()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// fill seeds the slots the current draw reads for the first time: draw
// k < 334 reads feed slot 333−k, and while k < 273 also tap slot 606−k.
func (s *lazySource) fill() {
	s.fresh--
	s.vec[s.feed] = seedWord(s.x0, s.feed) ^ rngCooked[s.feed]
	if s.tap >= rngFresh {
		s.vec[s.tap] = seedWord(s.x0, s.tap) ^ rngCooked[s.tap]
	}
}

// newRand returns a *rand.Rand over a fresh lazySource; the adversaries use
// it.
func newRand(seed int64) *rand.Rand {
	s := new(lazySource)
	s.Seed(seed)
	return rand.New(s)
}

// procRands recycles per-process generators between runs: a run takes one
// per process and gives it back when it returns.
var procRands = sync.Pool{New: func() any { return rand.New(new(lazySource)) }}

// procSeed derives process id's private seed from the run seed.
func procSeed(seed int64, id int) int64 {
	return seed ^ int64(id)*0x7E3779B97F4A7C15 ^ 0x5DEECE66D
}

// newProcs builds the per-process handles of one run. The RNG derivation is
// shared by every engine and free-running mode, so a seed reproduces
// identical private coins everywhere. The caller hands the handles to
// releaseProcs once every body has returned.
func newProcs(n int, seed int64, g gate) []*Proc {
	slab := make([]Proc, n)
	procs := make([]*Proc, n)
	for i := range slab {
		r := procRands.Get().(*rand.Rand)
		r.Seed(procSeed(seed, i)) // also clears Rand's Read buffer
		slab[i] = Proc{id: i, rng: r, gate: g}
		procs[i] = &slab[i]
	}
	return procs
}

// releaseProcs returns the run's generators to the pool. A Proc's Rand is
// nil afterwards, so a generator kept past its body fails loudly instead of
// silently sharing a stream with a later run.
func releaseProcs(procs []*Proc) {
	for _, p := range procs {
		procRands.Put(p.rng)
		p.rng = nil
	}
}

package sched

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// streamDraws runs past both lazy-fill boundaries (draws 273 and 334) and
// one full wrap of the 607-slot register.
const streamDraws = 1300

// checkStream compares lazySource with math/rand.NewSource draw for draw:
// raw Uint64 and Int63 outputs, then the derived Intn/Int63n/Perm through
// rand.New on each.
func checkStream(t *testing.T, seed int64, draws int) {
	t.Helper()
	want := rand.NewSource(seed).(rand.Source64)
	got := new(lazySource)
	got.Seed(seed)
	for k := 0; k < draws; k++ {
		if k%2 == 0 {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d: Uint64 draw %d = %#x, want %#x", seed, k, g, w)
			}
		} else if w, g := want.Int63(), got.Int63(); w != g {
			t.Fatalf("seed %d: Int63 draw %d = %#x, want %#x", seed, k, g, w)
		}
	}

	wr, gr := rand.New(rand.NewSource(seed)), newRand(seed)
	for k := 0; k < draws/4; k++ {
		n := 1 + k%40
		if w, g := wr.Intn(n), gr.Intn(n); w != g {
			t.Fatalf("seed %d: Intn(%d) call %d = %d, want %d", seed, n, k, g, w)
		}
		m := int64(1)<<(k%62) + int64(k)
		if w, g := wr.Int63n(m), gr.Int63n(m); w != g {
			t.Fatalf("seed %d: Int63n(%d) call %d = %d, want %d", seed, m, k, g, w)
		}
		if k%50 == 0 {
			if w, g := fmt.Sprint(wr.Perm(9)), fmt.Sprint(gr.Perm(9)); w != g {
				t.Fatalf("seed %d: Perm call %d = %s, want %s", seed, k, g, w)
			}
		}
	}
}

func TestSourceStream(t *testing.T) {
	edge := []struct {
		name string
		seed int64
	}{
		{"zero", 0},
		{"one", 1},
		{"minus-one", -1},
		{"int32max", int32max},
		{"minus-int32max", -int32max},
		{"two-int32max", 2 * int32max},
		{"stdlib-zero-substitute", 89482311},
		{"min-int64", math.MinInt64},
		{"max-int64", math.MaxInt64},
	}
	for id := 0; id < 64; id++ {
		edge = append(edge, struct {
			name string
			seed int64
		}{fmt.Sprintf("proc-%d", id), procSeed(7, id)})
	}
	for _, c := range edge {
		t.Run(c.name, func(t *testing.T) { checkStream(t, c.seed, streamDraws) })
	}

	t.Run("random", func(t *testing.T) {
		seeds := rand.New(rand.NewSource(20260417))
		for i := 0; i < 1000; i++ {
			checkStream(t, seeds.Int63()-seeds.Int63(), streamDraws)
		}
	})
}

// TestSourceReseed checks that a used source, reseeded, matches a fresh
// one: the recycling path relies on every slot being rewritten before it is
// read.
func TestSourceReseed(t *testing.T) {
	s := new(lazySource)
	for _, seed := range []int64{3, -99, 3, math.MaxInt64} {
		s.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for k := 0; k < streamDraws; k++ {
			if w, g := want.Uint64(), s.Uint64(); w != g {
				t.Fatalf("reseeded to %d: draw %d = %#x, want %#x", seed, k, g, w)
			}
		}
	}
}

// drawTranscript runs n processes that each take draws Int63 draws, one
// per step, and renders the grant sequence and every private draw. Grants
// are empty on the free-running engines, which have no grant sequence.
func drawTranscript(t *testing.T, engine string, seed int64, draws int) string {
	t.Helper()
	const n = 3
	got := make([][]int64, n)
	var grants strings.Builder
	var mu sync.Mutex
	body := func(p *Proc) {
		for i := 0; i < draws; i++ {
			got[p.ID()] = append(got[p.ID()], p.Rand().Int63())
			p.Step()
		}
	}
	cfg := Config{N: n, Seed: seed, Adversary: NewRandom(seed), OnStep: func(pid int, step int64) {
		mu.Lock()
		fmt.Fprintf(&grants, "%d:%d ", step, pid)
		mu.Unlock()
	}}
	var err error
	switch engine {
	case "dispatch":
		_, err = Run(cfg, body)
	case "commuting":
		cfg.Commuting = true
		_, err = Run(cfg, body)
	case "rendezvous":
		cfg.Rendezvous = true
		_, err = Run(cfg, body)
	case "native":
		_, err = NewNative(NativeOptions{}).Run(cfg, body)
	case "free":
		RunFree(n, seed, body)
	}
	if err != nil {
		t.Fatalf("%s seed %d: %v", engine, seed, err)
	}
	for id, ds := range got {
		want := rand.New(rand.NewSource(procSeed(seed, id)))
		for k, d := range ds {
			if w := want.Int63(); d != w {
				t.Fatalf("%s seed %d: proc %d draw %d = %#x, want stdlib's %#x", engine, seed, id, k, d, w)
			}
		}
	}
	return fmt.Sprint(grants.String(), got)
}

// TestProcSourceRecycling runs seed B, then seed A with enough draws to
// dirty every slot of the recycled generators, then seed B again: the
// second B run must reproduce the first byte for byte, and every private
// draw must be math/rand's for the process's derived seed, on every engine.
func TestProcSourceRecycling(t *testing.T) {
	const seedA, seedB = 11, 12
	for _, engine := range []string{"dispatch", "commuting", "rendezvous", "native", "free"} {
		t.Run(engine, func(t *testing.T) {
			first := drawTranscript(t, engine, seedB, 700)
			drawTranscript(t, engine, seedA, 1000)
			if again := drawTranscript(t, engine, seedB, 700); again != first {
				t.Fatalf("seed %d after seed %d diverges from its first run", seedB, seedA)
			}
		})
	}
}

func FuzzSourceStream(f *testing.F) {
	f.Add(int64(0), uint16(1300))
	f.Add(int64(math.MinInt64), uint16(700))
	f.Add(int64(int32max), uint16(334))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		checkStream(t, seed, int(draws))
	})
}

// benchSink keeps the benchmarked draws live.
var benchSink int

// BenchmarkProcSource measures what a process pays for its private
// generator in a short run: seeding plus the first 40 Intn(2) draws, for
// the lazy source and the stdlib one it replaces; then one steady-state
// Intn(2) on each.
func BenchmarkProcSource(b *testing.B) {
	const draws = 40
	b.Run("lazy", func(b *testing.B) {
		b.ReportAllocs()
		r := rand.New(new(lazySource))
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i))
			for k := 0; k < draws; k++ {
				benchSink += r.Intn(2)
			}
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := rand.New(rand.NewSource(int64(i)))
			for k := 0; k < draws; k++ {
				benchSink += r.Intn(2)
			}
		}
	})
	b.Run("intn-lazy", func(b *testing.B) {
		r := newRand(1)
		for i := 0; i < b.N; i++ {
			benchSink += r.Intn(2)
		}
	})
	b.Run("intn-stdlib", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			benchSink += r.Intn(2)
		}
	})
}

package main

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"runtime.mallocgc":                                                            "runtime",
		"runtime/internal/atomic.Xadd":                                                "runtime",
		"internal/runtime/maps.(*Map).Get":                                            "runtime",
		"math/rand.(*rngSource).Seed":                                                 "math_rand",
		"github.com/dsrepro/consensus.Solve":                                          "consensus",
		"github.com/dsrepro/consensus/internal/sched.(*dispatcher).step":              "sched",
		"github.com/dsrepro/consensus/internal/register.(*SWMR[go.shape.int64]).Read": "register",
		"github.com/dsrepro/consensus/internal/scan.(*Arrow[go.shape.struct { github.com/dsrepro/consensus/internal/core.x int }]).Scan": "scan",
		"github.com/dsrepro/consensus/internal/walk.Params.StepCounterTraced":                                                            "walk",
		"github.com/dsrepro/consensus/internal/strip.DecodeInto":                                                                         "strip",
		"github.com/dsrepro/consensus/internal/core.(*Bounded).Run.func1":                                                                "core",
		"github.com/dsrepro/consensus/internal/obs.(*Registry).Snapshot":                                                                 "obs",
		"github.com/dsrepro/consensus/internal/obs/audit.(*Monitor).StripRow":                                                            "obs",
		"github.com/dsrepro/consensus/internal/pad.(*Int64).Add":                                                                         "other",
		"sync.(*Mutex).Lock":   "other",
		"main.(*runner).solve": "other",
		"":                     "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// cannedTop is a `go tool pprof -top` listing of a benchmark profile, cut
// down to one function per bucket plus an inlined frame.
const cannedTop = `File: perfbench
Type: cpu
Duration: 3.50s, Total samples = 4s (114.29%)
Showing nodes accounting for 4s, 100% of 4s total
      flat  flat%   sum%        cum   cum%
     0.80s 20.00% 20.00%      0.80s 20.00%  runtime.futex
     0.40s 10.00% 30.00%      0.40s 10.00%  math/rand.(*rngSource).Uint64
     0.40s 10.00% 40.00%      1.50s 37.50%  github.com/dsrepro/consensus/internal/sched.(*commuter).dispatch
     0.40s 10.00% 50.00%      0.40s 10.00%  github.com/dsrepro/consensus/internal/sched.(*commuter).extensionCommutes (inline)
     0.20s  5.00% 55.00%      0.90s 22.50%  github.com/dsrepro/consensus/internal/register.(*SWMR[go.shape.struct { Pref int8; Coin []int }]).Read
     0.40s 10.00% 65.00%      2.25s 56.25%  github.com/dsrepro/consensus/internal/scan.(*Arrow[go.shape.struct { Pref int8; Coin []int }]).scanEpoch
     0.20s  5.00% 70.00%      0.20s  5.00%  github.com/dsrepro/consensus/internal/walk.Params.StepCounterTraced
     0.20s  5.00% 75.00%      0.20s  5.00%  github.com/dsrepro/consensus/internal/strip.(*Graph).distances
     0.20s  5.00% 80.00%      0.20s  5.00%  github.com/dsrepro/consensus/internal/core.fillEdgeMatrix (inline)
     0.20s  5.00% 85.00%      0.30s  7.50%  github.com/dsrepro/consensus/internal/obs.(*Sink).Emit
     0.20s  5.00% 90.00%      3.00s 75.00%  github.com/dsrepro/consensus.Solve
     0.20s  5.00% 95.00%      0.20s  5.00%  internal/sync.(*Mutex).Unlock (inline)
     0.20s  5.00%   100%      0.20s  5.00%  main.(*runner).solve
`

func TestFoldTopChargesLeafPackages(t *testing.T) {
	share, err := foldTop(cannedTop)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"runtime": 0.2, "math_rand": 0.1, "sched": 0.2, "register": 0.05, "scan": 0.1,
		"walk": 0.05, "strip": 0.05, "core": 0.05, "obs": 0.05, "consensus": 0.05, "other": 0.1}
	if len(share) != len(cpuLayers) {
		t.Errorf("fold has %d buckets, want %d: %v", len(share), len(cpuLayers), share)
	}
	for _, l := range cpuLayers {
		if math.Abs(share[l]-want[l]) > 1e-9 {
			t.Errorf("cpu.%s = %g, want %g", l, share[l], want[l])
		}
	}
}

func TestFoldTopRejectsOtherOutput(t *testing.T) {
	if _, err := foldTop("open cpu.pprof: no such file or directory\n"); err == nil {
		t.Fatal("folded a listing without a header")
	}
}

// TestTopListingOfOwnProfile profiles a short busy loop of this process and
// folds the listing that go tool pprof prints for it.
func TestTopListingOfOwnProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var sink int64
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		sink += rng.Int63()
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	listing, err := topListing(path)
	if err != nil {
		t.Fatal(err)
	}
	share, err := foldTop(listing)
	if err != nil {
		t.Fatal(err)
	}
	if share["math_rand"] == 0 {
		t.Errorf("no samples in math/rand (sum %d): %v\n%s", sink, share, listing)
	}
}

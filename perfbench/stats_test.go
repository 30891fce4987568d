package main

import (
	"math"
	"math/rand"
	"testing"
)

func TestFitLineRecoversFixedAndSlope(t *testing.T) {
	const fixed, slope = 120e3, 275.0 // ns, ns per step
	rng := rand.New(rand.NewSource(1))
	var x, y []float64
	for i := 0; i < 5000; i++ {
		steps := float64(rng.Intn(200000))
		x = append(x, steps)
		y = append(y, fixed+slope*steps+rng.NormFloat64()*1e3)
	}
	a, b, r2 := fitLine(x, y)
	if math.Abs(a-fixed) > 200 || math.Abs(b-slope) > 0.01 || r2 < 0.999 {
		t.Fatalf("fit = %.1f + %.4f·x (r2 %.5f), want %.0f + %.1f·x", a, b, r2, fixed, slope)
	}
	if a, b, r2 := fitLine([]float64{5, 5, 5}, []float64{1, 2, 3}); a != 2 || b != 0 || r2 != 0 {
		t.Fatalf("fit with no spread in x = %v, %v, %v; want 2, 0, 0", a, b, r2)
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]int64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = int64(i + 1) // descending, so percentile must sort
	}
	for _, tc := range []struct {
		p      float64
		v      int64
		beyond int
	}{{99, 990, 10}, {90, 900, 100}, {50, 500, 500}, {100, 1000, 0}} {
		if v, beyond := percentile(xs, tc.p); v != tc.v || beyond != tc.beyond {
			t.Errorf("p%g of 1..1000 = %d (%d beyond), want %d (%d beyond)", tc.p, v, beyond, tc.v, tc.beyond)
		}
	}
	if m := median(xs[:10]); m != 995 {
		t.Errorf("median of 1000..991 = %d, want 995", m)
	}
	if v, beyond := percentile(nil, 99); v != 0 || beyond != 0 {
		t.Errorf("p99 of nothing = %d (%d beyond), want 0 (0 beyond)", v, beyond)
	}
}

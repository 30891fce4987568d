package main

import (
	"math"
	"sort"
)

func sorted(xs []int64) []int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// rank is the nearest-rank index of the p-th percentile in n sorted samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	return r
}

// median is the nearest-rank median of xs, 0 when empty.
func median(xs []int64) int64 {
	v, _ := percentile(xs, 50)
	return v
}

// percentile returns the nearest-rank p-th percentile of xs and how many
// samples lie beyond it.
func percentile(xs []int64, p float64) (v int64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	r := rank(p, len(s))
	return s[r], len(s) - 1 - r
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// fitLine is the least-squares fit y = a + b·x, with the coefficient of
// determination r2. With no spread in x the slope is 0 and r2 is 0.
func fitLine(x, y []float64) (a, b, r2 float64) {
	n := float64(len(x))
	if n == 0 {
		return 0, 0, 0
	}
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx, my = mx/n, my/n
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return my, 0, 0
	}
	b = sxy / sxx
	a = my - b*mx
	if syy > 0 {
		r2 = sxy * sxy / (sxx * syy)
	}
	return a, b, r2
}

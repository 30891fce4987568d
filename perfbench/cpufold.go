package main

import (
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

const modulePath = "github.com/dsrepro/consensus"

// cpuLayers are the buckets of the CPU fold, in report order: the repo's
// layers plus math/rand and the Go runtime. Everything else is "other".
var cpuLayers = []string{"runtime", "math_rand", "sched", "register", "scan", "walk", "strip", "core", "obs", "consensus", "other"}

// funcPackage returns the import path of a symbolized Go function name such
// as "github.com/x/scan.(*Arrow[...]).Scan" or "runtime.mallocgc".
func funcPackage(fn string) string {
	s := fn
	if i := strings.IndexAny(s, "[("); i >= 0 {
		s = s[:i] // type arguments and receivers may themselves hold paths
	}
	slash := strings.LastIndex(s, "/")
	if dot := strings.Index(s[slash+1:], "."); dot >= 0 {
		return s[:slash+1+dot]
	}
	return s
}

// layerOf maps a function name to its CPU-fold bucket.
func layerOf(fn string) string {
	pkg := funcPackage(fn)
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "math/rand" || pkg == "math/rand/v2":
		return "math_rand"
	case pkg == modulePath:
		return "consensus"
	case strings.HasPrefix(pkg, modulePath+"/internal/"):
		top, _, _ := strings.Cut(strings.TrimPrefix(pkg, modulePath+"/internal/"), "/")
		switch top {
		case "sched", "register", "scan", "walk", "strip", "core", "obs":
			return top
		}
	}
	return "other"
}

// topListing runs `go tool pprof -top` on the CPU profile at path, listing
// every function with its self ("flat") time. The profile carries its own
// symbols, so the binary is not needed.
func topListing(path string) (string, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return string(out), nil
}

// foldTop folds a `go tool pprof -top` listing by package: each function's
// flat share, the samples whose leaf frame it is (the innermost one when
// calls were inlined), is charged to its bucket. Shares are normalized over
// the listed functions.
func foldTop(listing string) (map[string]float64, error) {
	share := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		share[l] = 0
	}
	var total float64
	header := false
	for _, line := range strings.Split(listing, "\n") {
		f := strings.Fields(line)
		if !header {
			header = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top line %q: %w", line, err)
		}
		name := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		share[layerOf(name)] += pct
		total += pct
	}
	if !header {
		return nil, errors.New("pprof -top listing has no flat/flat% header")
	}
	if total > 0 {
		for l := range share {
			share[l] /= total
		}
	}
	return share, nil
}

// Command perfbench is the repository's benchmark: it runs one named
// workload against the public API (consensus.Solve, consensus.SolveBatch) as
// a closed loop with one client, checks agreement and validity on every
// instance, and prints the end-to-end metrics. With --trace 1 it instead
// reports per-layer metrics: registry counts, a fitted cost model, timed
// probes of each layer's public functions, and a CPU profile folded by
// package. See README.md.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload batch-bounded-n5 --seed 1 --seconds 38 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// setupReps is how many times an untraced run repeats its set-up, once
// before each of as many equal segments of the timed phase. setup_s is the
// median, so one slow repetition does not move it, and the repetitions are
// spread over the run, so they sample the machine's speed as the timed
// phase does.
const setupReps = 10

// warmSeed seeds the warm-up instances.
const warmSeed = 0x7761726d // "warm"

// stamp identifies the conditions of a run in every output.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Trace      bool   `json:"trace"`
}

func (s stamp) String() string {
	return fmt.Sprintf("workload=%s seed=%d go=%s GOMAXPROCS=%d NumCPU=%d trace=%t",
		s.Workload, s.Seed, s.GoVersion, s.GOMAXPROCS, s.NumCPU, s.Trace)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload name")
		seed      = flag.Int64("seed", 1, "workload seed: every input and instance seed derives from it")
		seconds   = flag.Float64("seconds", 10, "timed wall time of the run")
		trace     = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
		instances = flag.Int("instances", 0, "run exactly this many instances per phase instead of --seconds (exact, citable counts)")
		outDir    = flag.String("out", ".bench_out", "directory for the traced run's span log, layer table and CPU profile")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fail(err)
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	if *seconds <= 0 && *instances <= 0 {
		fail(fmt.Errorf("--seconds must be positive, got %g", *seconds))
	}
	st := stamp{Workload: w.name, Seed: *seed, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Trace: *trace == 1}
	fmt.Println("perfbench", st)
	fmt.Printf("load: closed loop, 1 client, %s\n", loadShape(w))

	r, setupNS, warm, err := setupOnce(w, *seed)
	if err != nil {
		fail(err)
	}
	d := time.Duration(*seconds * float64(time.Second))
	var res result
	if st.Trace {
		res, err = traced(r, st, d, *instances, *outDir)
	} else {
		res, err = untraced(r, setupNS, warm, d, *instances)
	}
	if err != nil {
		fail(err)
	}
	if !warm.ok(w) {
		fmt.Printf("warm-up failures: %s\n", warm.failureSummary())
		res.Correct = false
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

func loadShape(w workload) string {
	s := fmt.Sprintf("%s n=%d, random adversary", w.alg, w.n)
	if w.batch == 0 {
		s = "unpooled Solve, " + s
	} else {
		s = fmt.Sprintf("SolveBatch Parallel=1 Instances=%d, %s", w.batch, s)
	}
	if w.commuting {
		s += ", ParallelDispatch"
	}
	if w.native {
		s += ", native substrate"
	} else {
		s += ", simulated substrate"
	}
	return s + fmt.Sprintf(", MaxSteps=%d", w.config().MaxSteps)
}

// setupOnce generates the inputs, builds the configuration and runs the
// warm-up, timed on the process CPU clock. The warm-up runs the same
// instances whatever the seed, so every set-up does equal work and work
// moved into set-up shows.
func setupOnce(w workload, seed int64) (*runner, int64, *tally, error) {
	start := cpuNow()
	warm, err := newRunner(w, warmSeed).run(0, w.warmup)
	if err != nil {
		return nil, 0, nil, err
	}
	r := newRunner(w, seed)
	return r, cpuNow() - start, warm, nil
}

// endToEnd computes the end-to-end metrics of one timed phase, timed on
// the process CPU clock.
func endToEnd(t *tally, w workload, setupS float64) map[string]metric {
	tail, _ := percentile(t.instNS, w.tail)
	return map[string]metric{
		"throughput_inst_s": {float64(t.decided()) / (float64(t.cpuNS) / 1e9), "1/s"},
		"latency_p50_ms":    {float64(median(t.instNS)) / 1e6, "ms"},
		"latency_tail_ms":   {float64(tail) / 1e6, "ms"},
		"steps_per_inst":    {mean(t.steps), "count"},
		"alloc_kb_per_inst": {float64(t.allocB) / 1024 / float64(t.attempted), "KiB"},
		"setup_s":           {setupS, "s"},
	}
}

// printEndToEnd prints the seven end-to-end metrics, then the throughput and
// latencies on the wall clock, which include time stolen from the process.
func printEndToEnd(w io.Writer, t *tally, wl workload, m map[string]metric) {
	row := func(name string, v float64, unit, note string) {
		fmt.Fprintln(w, strings.TrimRight(fmt.Sprintf("%-24s %14.6g  %-6s %s", name, v, unit, note), " "))
	}
	fmt.Fprintf(w, "%-24s %14s  %s\n", "metric", "value", "unit")
	for _, k := range []string{"throughput_inst_s", "latency_p50_ms", "latency_tail_ms", "steps_per_inst", "failed_frac", "alloc_kb_per_inst", "setup_s"} {
		switch k {
		case "failed_frac":
			row(k, float64(t.failures())/float64(t.attempted), "1", fmt.Sprintf("(%d of %d: %s)", t.failures(), t.attempted, t.failureSummary()))
		case "latency_tail_ms":
			_, beyond := percentile(t.instNS, wl.tail)
			note := fmt.Sprintf("(p%g, %d of %d instances beyond)", wl.tail, beyond, len(t.instNS))
			if beyond < 10 {
				note += " fewer than ten beyond: run longer"
			}
			row(k, m[k].Value, m[k].Unit, note)
		default:
			row(k, m[k].Value, m[k].Unit, "")
		}
	}
	row("wall.throughput_inst_s", float64(t.decided())/(float64(t.wallNS)/1e9), "1/s", fmt.Sprintf("(CPU clock ran %.3g of wall time)", float64(t.cpuNS)/float64(t.wallNS)))
	row("wall.latency_p50_ms", float64(median(t.instWallNS))/1e6, "ms", "")
	v, _ := percentile(t.instWallNS, wl.tail)
	row("wall.latency_tail_ms", float64(v)/1e6, "ms", fmt.Sprintf("(p%g)", wl.tail))
}

// measure runs one phase, recording the bytes it allocated.
func measure(r *runner, d time.Duration, instances int) (*tally, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t, err := r.run(d, instances)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	t.allocB = after.TotalAlloc - before.TotalAlloc
	return t, nil
}

// untraced runs the timed phase in setupReps equal segments, repeating the
// set-up before each segment after the first. The warm-up outcomes of the
// repetitions are added to warm.
func untraced(r *runner, setupNS int64, warm *tally, d time.Duration, instances int) (result, error) {
	setups := []int64{setupNS}
	t := &tally{counters: make(map[string]int64)}
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			_, ns, wt, err := setupOnce(r.w, r.seed)
			if err != nil {
				return result{}, err
			}
			setups = append(setups, ns)
			warm.merge(wt)
		}
		n := instances*(i+1)/setupReps - instances*i/setupReps
		if instances > 0 && n == 0 {
			continue
		}
		seg, err := measure(r, d/setupReps, n)
		if err != nil {
			return result{}, err
		}
		t.merge(seg)
	}
	m := endToEnd(t, r.w, float64(median(setups))/1e9)
	printEndToEnd(os.Stdout, t, r.w, m)
	return result{Correct: t.ok(r.w), Attempted: t.attempted, Failed: t.failures(), Metrics: m}, nil
}

// layerUnits lists every per-layer metric with its unit, in report order.
var layerUnits = []struct{ name, unit string }{
	{"register.ops_per_inst", "count"},
	{"scan.scans_per_inst", "count"},
	{"scan.retry_ratio", "ratio"},
	{"walk.steps_per_inst", "count"},
	{"strip.moves_per_inst", "count"},
	{"core.rounds_per_inst", "count"},
	{"core.fixed_us", "us"},
	{"core.ns_per_step", "ns"},
	{"core.fit_r2", "ratio"},
	{"consensus.solve_overhead_us", "us"},
	{"consensus.batch_overhead_ms", "ms"},
	{"sched.run_fixed_us", "us"},
	{"sched.ns_per_grant", "ns"},
	{"register.ns_per_op", "ns"},
	{"scan.ns_per_scan", "ns"},
	{"scan.steps_per_scan", "count"},
	{"walk.ns_per_flip", "ns"},
	{"walk.steps_per_flip", "count"},
	{"strip.ns_per_decode", "ns"},
	{"obs.ns_per_sink", "ns"},
	{"cpu.runtime", "frac"},
	{"cpu.math_rand", "frac"},
	{"cpu.sched", "frac"},
	{"cpu.register", "frac"},
	{"cpu.scan", "frac"},
	{"cpu.walk", "frac"},
	{"cpu.strip", "frac"},
	{"cpu.core", "frac"},
	{"cpu.obs", "frac"},
	{"cpu.consensus", "frac"},
	{"cpu.other", "frac"},
	{"trace.overhead_frac", "frac"},
}

// traced splits the timed wall time: 40% untraced, 40% traced under the CPU
// profiler with spans recorded, and 20% for the layer probes.
func traced(r *runner, st stamp, d time.Duration, instances int, outDir string) (result, error) {
	base, err := measure(r, d*2/5, instances)
	if err != nil {
		return result{}, err
	}
	spans := newSpanLog()
	r.spans = spans
	r.root = spans.begin("workload."+r.w.name, 0, 0)
	r.base.Latency = r.w.batch == 0 // Solve reports LatencyNS only when asked
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	t, err := measure(r, d*2/5, instances)
	pprof.StopCPUProfile()
	spans.end(r.root)
	if err != nil {
		return result{}, err
	}

	out := layerCounts(t)
	fitCost(out, base)
	if r.w.batch == 0 {
		out["consensus.solve_overhead_us"] = float64(median(t.solveOverheadNS)) / 1e3
	} else {
		out["consensus.batch_overhead_ms"] = float64(median(t.batchOverheadNS)) / 1e6
	}

	dir := filepath.Join(outDir, r.w.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	profPath := filepath.Join(dir, "cpu.pprof")
	if err := os.WriteFile(profPath, prof.Bytes(), 0o644); err != nil {
		return result{}, err
	}
	top, err := topListing(profPath)
	if err != nil {
		return result{}, err
	}
	fold, err := foldTop(top)
	if err != nil {
		return result{}, err
	}
	for l, v := range fold {
		out["cpu."+l] = v
	}
	// The two phases run different instances, so their throughputs are
	// compared per step: on the long workloads the steps per instance of
	// two few-hundred-instance samples differ by more than the overhead.
	stepRate := func(x *tally) float64 { return float64(x.decided()) / float64(x.cpuNS) * mean(x.steps) }
	out["trace.overhead_frac"] = 1 - stepRate(t)/stepRate(base)

	pr := &prober{w: r.w, seed: r.seed, slice: d / 5 / 8, spans: spans, out: out}
	if err := pr.probeAll(); err != nil {
		return result{}, err
	}
	api, err := pr.apiOverhead(r)
	if err != nil {
		return result{}, err
	}

	metrics := make(map[string]metric, len(layerUnits))
	for _, lu := range layerUnits {
		metrics[lu.name] = metric{out[lu.name], lu.unit}
	}
	if err := writeLayerFiles(dir, st, metrics, spans, top); err != nil {
		return result{}, err
	}
	printLayers(os.Stdout, metrics, spans)

	all := []*tally{base, t, api}
	res := result{Correct: true, Metrics: metrics}
	for _, x := range all {
		res.Attempted += x.attempted
		res.Failed += x.failures()
		if !x.ok(r.w) {
			res.Correct = false
		}
		if x.failures() > 0 {
			fmt.Printf("failures: %s\n", x.failureSummary())
		}
	}
	return res, nil
}

// layerCounts turns the registry counts of the traced phase into per-instance
// figures.
func layerCounts(t *tally) map[string]float64 {
	inst := float64(t.attempted)
	c := t.counters
	var regOps int64
	for k, v := range c {
		if strings.HasPrefix(k, "register.") {
			regOps += v
		}
	}
	out := map[string]float64{
		"register.ops_per_inst": float64(regOps) / inst,
		"scan.scans_per_inst":   float64(c["scan.clean"]+c["scan.borrow"]) / inst,
		"scan.retry_ratio":      0,
		"walk.steps_per_inst":   float64(c["walk.step"]) / inst,
		"strip.moves_per_inst":  float64(c["strip.move"]) / inst,
		"core.rounds_per_inst":  float64(c["core.round_advance"]) / inst,
	}
	if c["scan.clean"] > 0 {
		out["scan.retry_ratio"] = float64(c["scan.retry"]) / float64(c["scan.clean"])
	}
	return out
}

// fitCost fits latency = fixed + ns_per_step * steps over the decided
// instances of the untraced phase, which the profiler does not interrupt.
func fitCost(out map[string]float64, base *tally) {
	xs := make([]float64, len(base.steps))
	ys := make([]float64, len(base.steps))
	for i := range base.steps {
		xs[i], ys[i] = float64(base.steps[i]), float64(base.stepLatNS[i])
	}
	a, b, r2 := fitLine(xs, ys)
	out["core.fixed_us"] = a / 1e3
	out["core.ns_per_step"] = b
	out["core.fit_r2"] = r2
}

func printLayers(w io.Writer, metrics map[string]metric, spans *spanLog) {
	fmt.Fprintf(w, "%-28s %14s  %s\n", "layer metric", "value", "unit")
	for _, lu := range layerUnits {
		fmt.Fprintf(w, "%-28s %14.6g  %s\n", lu.name, metrics[lu.name].Value, lu.unit)
	}
	fmt.Fprintf(w, "\n%-22s %-28s %9s %12s %12s\n", "span", "parent", "count", "total_ms", "self_ms")
	for _, s := range spans.stats() {
		fmt.Fprintf(w, "%-22s %-28s %9d %12.3f %12.3f\n", s.name, s.parent, s.count, float64(s.totalNS)/1e6, float64(s.selfNS)/1e6)
	}
	if spans.dropped > 0 {
		fmt.Fprintf(w, "spans dropped beyond the in-memory cap: %d\n", spans.dropped)
	}
}

// writeLayerFiles writes the traced run's outputs into dir, beside the CPU
// profile: the per-layer table, the span log and the profile's pprof -top
// listing.
func writeLayerFiles(dir string, st stamp, metrics map[string]metric, spans *spanLog, top string) error {
	var table bytes.Buffer
	fmt.Fprintln(&table, "perfbench", st)
	printLayers(&table, metrics, spans)
	if err := os.WriteFile(filepath.Join(dir, "layers.txt"), table.Bytes(), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.top.txt"), []byte(top), 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	if err := spans.writeJSONL(f, st); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

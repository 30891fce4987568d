package main

import (
	"encoding/json"
	"fmt"
	"os"

	consensus "github.com/dsrepro/consensus"
	"github.com/dsrepro/consensus/internal/benchfmt"
	"github.com/dsrepro/consensus/internal/harness"
)

// runTail renders the tail-latency view of a bench artifact (consensus-load
// -json with -latency): per-workload wall-clock quantiles, the straggler
// digests, and the environment stamps the numbers were measured under. It
// also accepts a straggler bundle's summary.json (consensus-load
// -straggler-replay) and renders the replay verdict and blame digest instead.
func runTail(path string, format harness.Format) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "traceview: %v\n", err)
		return 1
	}

	// A bundle summary carries a "straggler" object; bench artifacts carry
	// "workloads" (matrix) or a top-level "algorithm" (legacy single report).
	var probe struct {
		Straggler json.RawMessage `json:"straggler"`
	}
	if err := json.Unmarshal(data, &probe); err == nil && probe.Straggler != nil {
		sum, err := consensus.ParseStragglerSummary(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "traceview: %v\n", err)
			return 1
		}
		summaryTable(path, sum).RenderAs(os.Stdout, format)
		return 0
	}

	m, err := benchfmt.ReadAny(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "traceview: %v\n", err)
		return 1
	}
	for _, t := range tailTables(path, m) {
		t.RenderAs(os.Stdout, format)
	}
	return 0
}

// tailTables builds the tail view of a bench artifact: the latency-quantile
// table (one row per metered workload) and the straggler digest table.
func tailTables(name string, m benchfmt.Matrix) []*harness.Table {
	lt := &harness.Table{
		Title:   fmt.Sprintf("%s: wall-clock latency per workload", name),
		Columns: []string{"workload", "count", "mean", "p50", "p90", "p99", "p999", "max"},
	}
	unmetered := 0
	for _, r := range m.Workloads {
		if r.Latency == nil || r.Latency.Count == 0 {
			unmetered++
			continue
		}
		l := r.Latency
		lt.Add(r.Key(), l.Count, msCell(int64(l.MeanNS)), msCell(l.P50NS), msCell(l.P90NS),
			msCell(l.P99NS), msCell(l.P999NS), msCell(l.MaxNS))
	}
	lt.Note("wall-clock values jitter run to run; benchdiff gates only the p99 ratio (see -max-latency-p99-growth).")
	if unmetered > 0 {
		lt.Note(fmt.Sprintf("%d workload(s) carry no latency block (run without -latency, or an older artifact).", unmetered))
	}
	for _, env := range envStamps(m) {
		lt.Note("measured on " + env)
	}
	out := []*harness.Table{lt}

	st := &harness.Table{
		Title:   fmt.Sprintf("%s: straggler digests", name),
		Columns: []string{"workload", "inst", "latency", "steps", "decision", "seed"},
	}
	rows := 0
	for _, r := range m.Workloads {
		for _, s := range r.Stragglers {
			st.Add(r.Key(), s.Index, msCell(s.LatencyNS), s.Steps, s.Decision, s.Seed)
			rows++
		}
	}
	if rows > 0 {
		st.Note("each digest replays deterministically, with a blame line per straggler: consensus-load -stragglers -straggler-replay.")
		out = append(out, st)
	}
	return out
}

// summaryTable renders one straggler bundle's summary.json (already parsed
// and verified by ParseStragglerSummary) as an attribute table.
func summaryTable(name string, sum map[string]any) *harness.Table {
	t := &harness.Table{
		Title:   fmt.Sprintf("%s: straggler replay", name),
		Columns: []string{"what", "value"},
	}
	num := func(key string) int64 { return sumInt(sum[key]) }
	str := func(key string) string {
		v, _ := sum[key].(string)
		return v
	}
	t.Add("workload", fmt.Sprintf("%s/n=%d (%s schedule)", str("algorithm"), num("n"), str("schedule")))
	if s, ok := sum["straggler"].(map[string]any); ok {
		t.Add("instance", sumInt(s["index"]))
		t.Add("seed", sumInt(s["seed"]))
		t.Add("original latency", msCell(sumInt(s["latency_ns"])))
	}
	t.Add("replay latency", msCell(num("replay_latency_ns")))
	t.Add("replay steps", num("replay_steps"))
	t.Add("replay decision", num("replay_decision"))
	t.Add("steps productive", num("steps_productive"))
	t.Add("steps scan-retry", num("steps_scan_retry"))
	t.Add("steps coin-spin", num("steps_coin_spin"))
	t.Add("steps strip-wait", num("steps_strip_wait"))
	if num("blame_retries") > 0 {
		t.Add("worst blame pair", fmt.Sprintf("scanner %d <- writer %d (%d retries)",
			num("blame_scanner"), num("blame_writer"), num("blame_retries")))
	}
	if num("hot_register_hits") > 0 {
		t.Add("hot register", fmt.Sprintf("r%d (%d hits)", num("hot_register"), num("hot_register_hits")))
	}
	t.Add("audit violations", num("audit_violations"))
	t.Note("replay latency is measured under full instrumentation and is expected to exceed the original; steps and decision are the deterministic fingerprint.")
	return t
}

// envStamps lists the distinct environment stamps of an artifact, rendered
// one per line.
func envStamps(m benchfmt.Matrix) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range m.Workloads {
		if r.Env == nil {
			continue
		}
		s := fmt.Sprintf("%s %s/%s, GOMAXPROCS %d, %d CPUs",
			r.Env.GoVersion, r.Env.OS, r.Env.Arch, r.Env.GOMAXPROCS, r.Env.NumCPU)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// sumInt reads one numeric value of a parsed straggler summary. The parser
// keeps numbers as json.Number (seeds are full-range int64s, which float64
// would corrupt past 2^53); float64 is accepted for any hand-built map.
func sumInt(v any) int64 {
	switch x := v.(type) {
	case json.Number:
		n, err := x.Int64()
		if err != nil {
			f, _ := x.Float64()
			return int64(f)
		}
		return n
	case float64:
		return int64(x)
	}
	return 0
}

// msCell renders a nanosecond latency as milliseconds.
func msCell(ns int64) string { return fmt.Sprintf("%.2fms", float64(ns)/1e6) }

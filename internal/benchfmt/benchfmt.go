// Package benchfmt defines the machine-readable benchmark report produced by
// cmd/consensus-load -json (the BENCH_batch.json artifact) and the regression
// comparison over two such reports used by cmd/benchdiff and `make
// bench-check`. It lives in internal so the load generator and the diff tool
// share one schema definition; DESIGN.md §10 documents the wire format.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"

	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/obs/space"
	"github.com/dsrepro/consensus/internal/obs/tail"
)

// Report is one consensus-load invocation's results. Field names are the
// stable JSON schema; new fields are only ever added (older artifacts decode
// with the new fields zero).
type Report struct {
	Algorithm string `json:"algorithm"`
	N         int    `json:"n"`
	// K and M are the workload's strip constant and coin bound when the sweep
	// set them explicitly; 0 means the algorithm defaults (and keeps
	// pre-frontier artifacts on their historical keys).
	K int `json:"k,omitempty"`
	M int `json:"m,omitempty"`
	// Substrate names the execution backend the workload ran on ("simulated"
	// or "native"). Empty means simulated — artifacts predate the field — so
	// old and new artifacts keep pairing on the same keys.
	Substrate string `json:"substrate,omitempty"`
	// Dispatch names the scheduling engine ("sequential" or "commuting").
	// Empty means sequential — artifacts predate the field — so old and new
	// artifacts keep pairing on the same keys. Dispatch modes are different
	// workloads: commuting schedules have a different interleaving
	// distribution, so their step counts must never pair-compare against
	// sequential rows.
	Dispatch        string           `json:"dispatch,omitempty"`
	Instances       int              `json:"instances"`
	Parallel        int              `json:"parallel"`
	Seed            int64            `json:"seed"`
	ElapsedSec      float64          `json:"elapsed_sec"`
	InstancesPerSec float64          `json:"instances_per_sec"`
	Errors          int              `json:"errors"`
	Steps           StepsSummary     `json:"steps"`
	Counters        map[string]int64 `json:"counters"`
	Gauges          map[string]int64 `json:"gauges"`
	// Hists carries the batch's full histogram snapshots, including the
	// phase.steps.* family. Absent from artifacts generated before the field
	// existed (nil map — benchdiff then skips phase comparisons).
	Hists map[string]obs.HistSnapshot `json:"hists,omitempty"`
	// Dropped counts ring-recorder events overwritten during the run (0 when
	// no tail was attached or the ring kept up).
	Dropped int64 `json:"dropped_events,omitempty"`
	// Violations counts invariant-monitor probe firings across the batch
	// (0 when auditing was off or the batch was clean; see internal/obs/audit).
	Violations int64 `json:"audit_violations,omitempty"`
	// Matrices carries matrix-valued metrics merged across the batch — today
	// the profiler's blame matrix and contention heatmap (-prof). Absent when
	// profiling was off. benchdiff reports their totals via the prof.* counters
	// rather than comparing cells.
	Matrices map[string]obs.MatrixSnapshot `json:"matrices,omitempty"`
	// Derived holds ratios computed from the raw counters at report time
	// ("scan.retry_ratio" = scan.retry / scan.clean). They are informational:
	// benchdiff reports them but never gates on them, since each is derivable
	// from counters that are themselves compared.
	Derived map[string]float64 `json:"derived,omitempty"`
	// Space is the batch-wide space accounting (peak register count, word
	// layout, bits-per-register) when the workload ran with meters attached.
	// Absent from artifacts generated before the field existed — benchdiff
	// then skips space comparisons.
	Space *SpaceStats `json:"space,omitempty"`
	// Latency is the per-instance wall-clock distribution when the workload
	// ran with -latency metering. Unlike steps it is NOT deterministic per
	// seed: benchdiff gates only the p99 ratio, and loosely. Absent from
	// artifacts generated before the field existed.
	Latency *tail.Summary `json:"latency,omitempty"`
	// Stragglers digests the top-k slowest instances (seed, latency, steps,
	// decision) when the workload ran with -stragglers. The seeds make each
	// one replayable offline via consensus-load -straggler-replay.
	Stragglers []tail.Straggler `json:"stragglers,omitempty"`
	// Env stamps the environment the workload ran in. Latency numbers are
	// only comparable between matching environments; benchdiff warns (never
	// errors) on a mismatch. Absent from artifacts generated before the
	// field existed.
	Env *EnvStamp `json:"env,omitempty"`
}

// EnvStamp records the run environment a report's wall-clock numbers were
// measured in. Step counts are environment-independent; latency and
// throughput are not, so benchdiff surfaces stamp mismatches as warnings.
type EnvStamp struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// CurrentEnv stamps the calling process's environment.
func CurrentEnv() *EnvStamp {
	return &EnvStamp{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// Diff lists the fields on which two stamps disagree, formatted for the
// benchdiff warning stream ("go_version: go1.22.1 -> go1.23.0"). A nil stamp
// on either side yields no diffs — artifacts predating the field are mute,
// not mismatched.
func (e *EnvStamp) Diff(other *EnvStamp) []string {
	if e == nil || other == nil {
		return nil
	}
	var out []string
	if e.GoVersion != other.GoVersion {
		out = append(out, fmt.Sprintf("go_version: %s -> %s", e.GoVersion, other.GoVersion))
	}
	if e.GOMAXPROCS != other.GOMAXPROCS {
		out = append(out, fmt.Sprintf("gomaxprocs: %d -> %d", e.GOMAXPROCS, other.GOMAXPROCS))
	}
	if e.NumCPU != other.NumCPU {
		out = append(out, fmt.Sprintf("num_cpu: %d -> %d", e.NumCPU, other.NumCPU))
	}
	if e.OS != other.OS {
		out = append(out, fmt.Sprintf("os: %s -> %s", e.OS, other.OS))
	}
	if e.Arch != other.Arch {
		out = append(out, fmt.Sprintf("arch: %s -> %s", e.Arch, other.Arch))
	}
	return out
}

// SpaceStats is the bench-artifact form of a space.Usage: the totals benchdiff
// gates on plus the per-layer bit widths the frontier tables render.
type SpaceStats struct {
	// PeakRegs is the batch-wide maximum register count of one instance;
	// LiveRegs counts the registers actually written.
	PeakRegs int64 `json:"peak_regs"`
	LiveRegs int64 `json:"live_regs,omitempty"`
	// PeakWords is the maximum abstract word count across all layers.
	PeakWords int64 `json:"peak_words"`
	// MaxBits is the widest register payload, in bits: the max over layers of
	// max(measured, declared) width, space.UnboundedBits (-1) when some layer
	// declares an unbounded domain AND never stored anything measurable.
	MaxBits int `json:"max_bits"`
	// LayerBits maps layer name -> that layer's payload width in bits.
	LayerBits map[string]int `json:"layer_bits,omitempty"`
}

// SpaceFromUsage converts a meter's usage into the bench-artifact form.
func SpaceFromUsage(u space.Usage) *SpaceStats {
	s := &SpaceStats{
		PeakRegs:  u.Regs,
		LiveRegs:  u.LiveRegs,
		PeakWords: u.PeakWords,
		MaxBits:   u.MaxBits,
	}
	if len(u.Layers) > 0 {
		s.LayerBits = make(map[string]int, len(u.Layers))
		for name, lu := range u.Layers {
			s.LayerBits[name] = lu.Bits()
		}
	}
	return s
}

// Key identifies the workload a report measured, for pairing the entries of
// two matrix artifacts. The substrate is part of the key — native and
// simulated runs of the same (algorithm, n) are different workloads and must
// never pair-compare — but the default simulated substrate is omitted so
// pre-substrate artifacts keep their historical keys.
func (r Report) Key() string {
	k := fmt.Sprintf("%s/n=%d", r.Algorithm, r.N)
	if r.K != 0 {
		k += fmt.Sprintf("/K=%d", r.K)
	}
	if r.M != 0 {
		k += fmt.Sprintf("/M=%d", r.M)
	}
	if s := NormSubstrate(r.Substrate); s != "simulated" {
		k += "/" + s
	}
	if d := NormDispatch(r.Dispatch); d != "sequential" {
		k += "/" + d
	}
	return k
}

// NormSubstrate maps a report's substrate name to its canonical form: the
// empty string (artifacts predating the field) is the simulated substrate.
func NormSubstrate(s string) string {
	if s == "" {
		return "simulated"
	}
	return s
}

// NormDispatch maps a report's dispatch name to its canonical form: the
// empty string (artifacts predating the field) is sequential dispatch.
func NormDispatch(s string) string {
	if s == "" {
		return "sequential"
	}
	return s
}

// StepsSummary is the per-instance step-total distribution.
type StepsSummary struct {
	Mean float64 `json:"mean"`
	Min  int64   `json:"min"`
	P50  int64   `json:"p50"`
	P90  int64   `json:"p90"`
	P99  int64   `json:"p99"`
	Max  int64   `json:"max"`
}

// Matrix is a multi-workload bench artifact: one consensus-load -matrix
// invocation producing one Report per (algorithm, n) workload. It is the
// current BENCH_batch.json format; single-Report artifacts from older
// checkouts still decode via ReadAny.
type Matrix struct {
	Workloads []Report `json:"workloads"`
}

// Read decodes a report from the JSON file at path.
func Read(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, fmt.Errorf("benchfmt: parsing %s: %w", path, err)
	}
	return r, nil
}

// ReadAny decodes either artifact shape from the JSON file at path: a matrix
// (the current format, detected by its "workloads" key) or a legacy single
// report, which is returned as a one-workload matrix. This keeps benchdiff
// able to gate a new matrix artifact against a pre-matrix baseline.
func ReadAny(path string) (Matrix, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Matrix{}, err
	}
	var probe struct {
		Workloads []json.RawMessage `json:"workloads"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return Matrix{}, fmt.Errorf("benchfmt: parsing %s: %w", path, err)
	}
	if probe.Workloads != nil {
		var m Matrix
		if err := json.Unmarshal(data, &m); err != nil {
			return Matrix{}, fmt.Errorf("benchfmt: parsing %s: %w", path, err)
		}
		return m, nil
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Matrix{}, fmt.Errorf("benchfmt: parsing %s: %w", path, err)
	}
	return Matrix{Workloads: []Report{r}}, nil
}

// Write encodes the report as indented JSON (the legacy single-workload
// BENCH_batch.json format).
func Write(w io.Writer, r Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteMatrix encodes the matrix as indented JSON (the BENCH_batch.json
// format).
func WriteMatrix(w io.Writer, m Matrix) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

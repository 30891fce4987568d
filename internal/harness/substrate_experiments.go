package harness

import (
	"fmt"
	"math/rand"

	"github.com/dsrepro/consensus/internal/register"
	"github.com/dsrepro/consensus/internal/scan"
	"github.com/dsrepro/consensus/internal/sched"
	"github.com/dsrepro/consensus/internal/strip"
	"github.com/dsrepro/consensus/internal/walk"
)

// e7ScanRetries measures scan retry behaviour of the arrow scannable memory
// under writer contention (§2: scans retry only on account of new writes).
func e7ScanRetries() Experiment {
	return Experiment{
		ID: "E7", Title: "snapshot scan retries vs concurrent writers", PaperRef: "§2 (progress discussion)",
		Run: func(o RunOpts) []*Table {
			ns := []int{2, 4, 8}
			if o.Quick {
				ns = []int{2, 4}
			}
			// Writer duty cycle: idle scheduler steps between writes. 0 means
			// writers write back-to-back — under that load the scan can
			// starve, which is exactly the paper's point: write is wait-free,
			// scan is only non-blocking (it retries while new writes keep
			// completing).
			paces := []int{0, 8, 32, 128}
			const scansPerRun = 40
			var tables []*Table
			for _, n := range ns {
				t := &Table{
					Title:   fmt.Sprintf("n=%d: 1 scanner (%d scans), %d writers, random adversary", n, scansPerRun, n-1),
					Columns: []string{"writer idle steps", "arrow retries/scan", "seqsnap retries/scan", "waitfree retries/scan"},
				}
				for _, pace := range paces {
					measure := func(mem scan.Memory[int], retries func(int) int64) string {
						done := false // written by scanner, read by writers (serialized under the step scheduler)
						completed := 0
						_, _ = sched.Run(sched.Config{
							N: n, Seed: o.Seed + int64(n*1000+pace), Adversary: sched.NewRandom(int64(n*3 + pace)),
							MaxSteps: 3_000_000, Sink: o.Sink,
						}, func(p *sched.Proc) {
							if p.ID() == 0 {
								for k := 0; k < scansPerRun; k++ {
									mem.Scan(p)
									completed++
								}
								done = true
								return
							}
							for k := 0; !done; k++ {
								mem.Write(p, k)
								for d := 0; d < pace && !done; d++ {
									p.Step() // local work between writes
								}
							}
						})
						if completed == 0 {
							return "starved"
						}
						return F(float64(retries(0)) / float64(completed))
					}
					arrow := scan.NewArrow[int](n, register.DirectFactory)
					seq := scan.NewSeqSnap[int](n)
					wf := scan.NewWaitFree[int](n)
					for _, m := range []scan.Memory[int]{arrow, seq, wf} {
						m.Install(register.Instruments{Sink: o.Sink})
					}
					t.Add(pace, measure(arrow, arrow.Retries), measure(seq, seq.Retries), measure(wf, wf.Retries))
				}
				t.Note("retries fall as writers idle longer; back-to-back writers can starve the paper's scan (non-blocking, not wait-free) — the Afek-et-al. wait-free snapshot never starves (it borrows embedded views).")
				tables = append(tables, t)
			}
			return tables
		},
	}
}

// e8StripRange verifies the §4 compression claims over long random games:
// normalized positions stay in [0..K·n], counters stay in [0..3K), and the
// counter representation tracks the game exactly (Claim 4.1).
func e8StripRange() Experiment {
	return Experiment{
		ID: "E8", Title: "rounds-strip compression over long games", PaperRef: "§4, Claim 4.1",
		Run: func(o RunOpts) []*Table {
			const k = 2
			ns := []int{4, 8, 16}
			moves := 200_000
			if o.Quick {
				ns = []int{4}
				moves = 20_000
			}
			t := &Table{
				Title:   fmt.Sprintf("K=%d, %d random moves per n", k, moves),
				Columns: []string{"n", "max position", "bound K*n", "max gap", "max counter", "bound 3K-1", "graph==game"},
			}
			for _, n := range ns {
				game, err := strip.NewGame(n, k, strip.Normalized)
				if err != nil {
					t.Note("n=%d: %v", n, err)
					continue
				}
				e := strip.CounterMatrix(n)
				rng := rand.New(rand.NewSource(o.Seed + int64(n)))
				maxPos, maxGap, maxCtr := 0, 0, 0
				equal := true
				for s := 0; s < moves; s++ {
					i := rng.Intn(n)
					game.Move(i)
					row, err := strip.IncRow(i, e, k)
					if err != nil {
						t.Note("n=%d move %d: %v", n, s, err)
						equal = false
						break
					}
					e[i] = row
					if _, hi := strip.Range(game.Pos); hi > maxPos {
						maxPos = hi
					}
					if g := strip.MaxGap(game.Pos); g > maxGap {
						maxGap = g
					}
					for _, r := range e {
						for _, c := range r {
							if c > maxCtr {
								maxCtr = c
							}
						}
					}
					if s%1000 == 0 {
						dec, err := strip.Decode(e, k)
						if err != nil || !dec.Equal(strip.FromPositions(game.Pos, k)) {
							equal = false
						}
					}
				}
				t.Add(n, maxPos, k*n, maxGap, maxCtr, 3*k-1, equal)
			}
			t.Note("all columns must respect their bounds regardless of game length — the strip is genuinely bounded.")
			return []*Table{t}
		},
	}
}

// e10WalkTrace prints one sample random-walk trajectory with its barriers —
// the figure analogue for §3.
func e10WalkTrace() Experiment {
	return Experiment{
		ID: "E10", Title: "sample shared-coin walk trajectory", PaperRef: "§3 (random walk)",
		Run: func(o RunOpts) []*Table {
			params := walk.Params{N: 8, B: 4}
			params.M = params.DefaultM()
			coin, err := walk.NewSharedCoin(params)
			if err != nil {
				t := &Table{Title: "walk trace"}
				t.Note("setup failed: %v", err)
				return []*Table{t}
			}
			var trace []int
			coin.OnStep = func(_, walkValue int) { trace = append(trace, walkValue) }
			_, _ = sched.Run(sched.Config{
				N: 8, Seed: o.Seed + 5, Adversary: sched.NewRandom(o.Seed + 6), MaxSteps: 100_000_000,
			}, func(p *sched.Proc) {
				coin.Flip(p)
			})
			t := &Table{
				Title:   fmt.Sprintf("n=%d B=%d: walk value per step (barriers at ±%d)", params.N, params.B, params.B*params.N),
				Columns: []string{"step", "walk value"},
			}
			stride := len(trace)/24 + 1
			for i := 0; i < len(trace); i += stride {
				t.Add(i, trace[i])
			}
			if len(trace) > 0 {
				t.Add(len(trace)-1, trace[len(trace)-1])
				t.Note("decided after %d walk steps (theory mean: %s)", len(trace), F(params.TheoreticalExpectedSteps()))
			}
			return []*Table{t}
		},
	}
}

package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/clock"
	"repro/internal/defense"
	"repro/internal/experiments"
	"repro/internal/mc"
	"repro/internal/sim"
	"repro/internal/workload"
)

// spec is one benchmark workload.
type spec struct {
	name string
	// requests is the request budget of one run at budget 1: the machine's
	// MaxRequests for a single-machine workload, the quick-scale per-cell
	// budget for the grid.
	requests int64
	// grid marks fig7b-grid, whose timed operation is experiments.Figure7b.
	grid bool
	// cells lists the machines one operation runs, in the order Figure7b
	// runs them for the grid.
	cells func(s experiments.Scale) ([]cell, error)
}

// cell is one (workload, defense) machine run.
type cell struct {
	wname, dname string
	cfg          sim.Config
	scale        experiments.Scale
	build        func() (workload.Workload, error)
	limits       sim.Limits
}

func (c cell) label() string { return c.wname + "/" + c.dname }

// defense builds the cell's defense fresh.
func (c cell) defense() (defense.Defense, error) { return c.scale.NewDefense(c.dname, c.cfg.DRAM) }

// instance builds a fresh defense and workload for one run of the cell.
func (c cell) instance() (defense.Defense, workload.Workload, error) {
	def, err := c.defense()
	if err != nil {
		return nil, workload.Workload{}, err
	}
	w, err := c.build()
	if err != nil {
		return nil, workload.Workload{}, err
	}
	return def, w, nil
}

// specs are the benchmark's workloads; BENCHMARK.json gives the reason for
// each. The budgets keep one operation near half a second, so a 25-second
// window holds some 40 operations for each lap to take its fastest of. The grid
// runs its S1 and S3 cells at 40k requests (perfbench's grid budget); its
// S2 cells need three full cycles (195k requests) whatever the budget.
var specs = []spec{
	{name: "s3-hammer", requests: 600000, cells: single("S3", 1, func(s experiments.Scale, amap *mc.AddrMap, cfg sim.Config) (workload.Workload, error) {
		return workload.S3(amap, cfg.DRAM, aggressorRow(s.Seed, cfg.DRAM.RowsPerBank)), nil
	})},
	{name: "mix-high", requests: 100000, cells: single("mix-high", 4, func(s experiments.Scale, _ *mc.AddrMap, cfg sim.Config) (workload.Workload, error) {
		return workload.MixHigh(4, uint64(cfg.DRAM.TotalCapacityBytes()), s.Seed)
	})},
	{name: "povray-refresh", requests: 100000, cells: single("specrate-povray", 4, func(s experiments.Scale, _ *mc.AddrMap, cfg sim.Config) (workload.Workload, error) {
		return workload.SPECRate("povray", 4, uint64(cfg.DRAM.TotalCapacityBytes()), s.Seed)
	})},
	{name: "fig7b-grid", requests: 40000, grid: true, cells: fig7bCells},
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

func workloadByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// aggressorRow is the row s3-hammer attacks: row 5000 (Figure 7(b)'s S3) at
// the default seed 1, a seed-chosen interior row otherwise, so runs at
// different seeds hammer different rows.
func aggressorRow(seed int64, rows int) int {
	if seed == 1 {
		return 5000
	}
	return 1 + rand.New(rand.NewSource(seed)).Intn(rows-2)
}

// machineConfig is the quick-scale machine experiments builds for its
// grids: Table 4 with tREFW and the flip threshold scaled down, and the
// scale's seed driving the remap layout. Channel-parallel settings keep
// their zero values, so every run is the classic event loop.
func machineConfig(s experiments.Scale, cores int) sim.Config {
	cfg := sim.DefaultConfig(cores)
	cfg.DRAM.TREFW = s.TREFW
	cfg.DRAM.NTh = s.NTh
	cfg.MC = mc.NewConfig(cfg.DRAM)
	cfg.Seed = s.Seed
	return cfg
}

// runLimits bounds a cell by its request budget; the simulated-time ceiling
// is the one experiments uses and is never reached by these workloads.
func runLimits(requests int64) sim.Limits {
	return sim.Limits{MaxRequests: requests, MaxTime: 30 * clock.Second}
}

// single builds a one-cell workload under quick-scale TWiCe (pa table).
func single(wname string, cores int, build func(experiments.Scale, *mc.AddrMap, sim.Config) (workload.Workload, error)) func(experiments.Scale) ([]cell, error) {
	return func(s experiments.Scale) ([]cell, error) {
		cfg := machineConfig(s, cores)
		amap, err := mc.NewAddrMap(cfg.DRAM)
		if err != nil {
			return nil, err
		}
		return []cell{{
			wname:  wname,
			dname:  "TWiCe",
			cfg:    cfg,
			scale:  s,
			build:  func() (workload.Workload, error) { return build(s, amap, cfg) },
			limits: runLimits(s.Requests),
		}}, nil
	}
}

// fig7bCells lists the Figure 7(b) grid exactly as experiments.Figure7b
// runs it: S1, S2 and S3 under each defense in display order, S2 with its
// minimum of three exhaust-then-attack cycles. The end-to-end check compares
// these cells' results with Figure7b's, so a drift between the two lists
// shows up as failed runs.
func fig7bCells(s experiments.Scale) ([]cell, error) {
	cfg := machineConfig(s, s.Cores)
	amap, err := mc.NewAddrMap(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	syn := []struct {
		name  string
		build func() workload.Workload
	}{
		{"S1", func() workload.Workload { return workload.S1(amap, cfg.DRAM, s.Seed) }},
		{"S2", func() workload.Workload { return workload.S2(amap, cfg.DRAM, s.CBTThreshold) }},
		{"S3", func() workload.Workload { return workload.S3(amap, cfg.DRAM, 5000) }},
	}
	var cells []cell
	for _, w := range syn {
		requests := s.Requests
		if w.name == "S2" {
			cycle := int64(float64(s.CBTThreshold)*0.9*128) + 12*int64(s.CBTThreshold)
			if min := 3 * cycle; requests < min {
				requests = min
			}
		}
		build := w.build
		for _, d := range experiments.DefenseNames() {
			cells = append(cells, cell{
				wname:  w.name,
				dname:  d,
				cfg:    cfg,
				scale:  s,
				build:  func() (workload.Workload, error) { return build(), nil },
				limits: runLimits(requests),
			})
		}
	}
	return cells, nil
}

// figCell converts a cell's result to the row experiments.Figure7b reports
// for it (the same fields its runCell fills).
func figCell(c cell, r *sim.Result) experiments.Cell {
	return experiments.Cell{
		Workload:   c.wname,
		Defense:    c.dname,
		Ratio:      r.Counters.AdditionalACTRatio(),
		NormalACTs: r.Counters.NormalACTs,
		ExtraACTs:  r.Counters.DefenseACTs,
		Detections: r.Counters.Detections,
		ARRs:       r.Counters.ARRs,
		Nacks:      r.Counters.Nacks,
		Flips:      int64(len(r.Flips)),
		SimTime:    r.SimTime,
	}
}

// figCellKey renders the fields of a Figure 7(b) row that the check
// compares. Fields are named one by one, so a field added to the struct
// later does not change the key.
func figCellKey(c experiments.Cell) string {
	return fmt.Sprintf("%s/%s ratio=%s normal=%d extra=%d det=%d arr=%d nack=%d flips=%d t=%d",
		c.Workload, c.Defense, strconv.FormatFloat(c.Ratio, 'g', -1, 64),
		c.NormalACTs, c.ExtraACTs, c.Detections, c.ARRs, c.Nacks, c.Flips, int64(c.SimTime))
}

// digest hashes what a run computed: its counters, simulated time, flips
// and per-core detections. Fields are written one by one (not with %+v), so
// a counter added to the simulator later leaves the committed digests valid
// while any change to an existing figure invalidates them.
func digest(results []*sim.Result) string {
	h := sha256.New()
	for _, r := range results {
		writeResult(h, r)
	}
	return hex.EncodeToString(h.Sum(nil))[:24]
}

func writeResult(h hash.Hash, r *sim.Result) {
	c := r.Counters
	fmt.Fprintf(h, "run %s/%s\n", r.Workload, r.Defense)
	fmt.Fprintf(h, "acts %d %d pre %d rd %d wr %d ref %d arr %d nack %d\n",
		c.NormalACTs, c.DefenseACTs, c.Precharges, c.Reads, c.Writes, c.Refreshes, c.ARRs, c.Nacks)
	fmt.Fprintf(h, "rowbuf %d %d %d det %d flips %d\n", c.RowHits, c.RowMisses, c.RowConflicts, c.Detections, c.BitFlips)
	fmt.Fprintf(h, "served %d lat %d max %d\n", c.RequestsServed, int64(c.TotalLatency), int64(c.MaxLatency))
	fmt.Fprintf(h, "insn %d cache %d %d\n", c.Instructions, c.CacheHits, c.CacheMisses)
	fmt.Fprintf(h, "simtime %d\n", int64(r.SimTime))
	for _, f := range r.Flips {
		fmt.Fprintf(h, "flip %d/%d/%d %d %d %d %d\n", f.Bank.Channel, f.Bank.Rank, f.Bank.Bank, f.PhysRow, f.Logical, int64(f.Time), f.Disturb)
	}
	cores := make([]int, 0, len(r.DetectionsByCore))
	for k := range r.DetectionsByCore {
		cores = append(cores, k)
	}
	sort.Ints(cores)
	for _, k := range cores {
		fmt.Fprintf(h, "detcore %d %d\n", k, r.DetectionsByCore[k])
	}
}

// checkRun returns the invariant violations of one cell's result. They hold
// at any seed:
//   - the run served its whole request budget;
//   - TWiCe lets no bit flip;
//   - the REF count matches simulated time: one REF per rank per tREFI
//     (strict pacing, RefreshPostpone 0), plus the drain's two tREFI;
//   - single-row S3 under TWiCe is detected, and its extra activations are
//     two victim refreshes per thRH aggressor activations (ratio ≈ 2/thRH);
//   - TWiCe adds no activations to S1 and S2 (Figure 7(b)).
func checkRun(c cell, r *sim.Result) []string {
	var bad []string
	cnt := r.Counters
	if cnt.RequestsServed < c.limits.MaxRequests {
		bad = append(bad, fmt.Sprintf("served %d of %d requests", cnt.RequestsServed, c.limits.MaxRequests))
	}
	p := c.cfg.DRAM
	ranks := int64(p.Channels * p.RanksPerChannel)
	ticks := int64(r.SimTime / p.TREFI)
	if lo, hi := (ticks-1)*ranks, (ticks+3)*ranks; cnt.Refreshes < lo || cnt.Refreshes > hi {
		bad = append(bad, fmt.Sprintf("%d REFs over %v, want %d..%d (tREFI %v × %d ranks)", cnt.Refreshes, r.SimTime, lo, hi, p.TREFI, ranks))
	}
	if c.dname != "TWiCe" {
		return bad
	}
	if len(r.Flips) != 0 || cnt.BitFlips != 0 {
		bad = append(bad, fmt.Sprintf("%d bit flips under TWiCe", len(r.Flips)))
	}
	if c.wname == "S3" {
		// Two victim refreshes per thRH aggressor ACTs, within 25% plus one
		// detection's worth for short runs.
		want := 2 * float64(cnt.NormalACTs) / float64(c.scale.ThRH)
		if got := float64(cnt.DefenseACTs); cnt.Detections == 0 || math.Abs(got-want) > 0.25*want+2 {
			bad = append(bad, fmt.Sprintf("S3 under TWiCe: %d detections, %d extra ACTs over %d, want > 0 detections and ≈ %.0f (ratio 2/thRH)",
				cnt.Detections, cnt.DefenseACTs, cnt.NormalACTs, want))
		}
	}
	if (c.wname == "S1" || c.wname == "S2") && cnt.DefenseACTs != 0 {
		bad = append(bad, fmt.Sprintf("TWiCe added %d ACTs on %s, want 0", cnt.DefenseACTs, c.wname))
	}
	return bad
}

//go:embed expected.json
var expectedJSON []byte

// loadExpected parses the committed digests: workload → seed → digest.
func loadExpected() (map[string]map[int64]string, error) {
	var raw map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &raw); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	out := make(map[string]map[int64]string, len(raw))
	for w, seeds := range raw {
		out[w] = make(map[int64]string, len(seeds))
		for s, d := range seeds {
			n, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("expected.json: %s: seed %q: %w", w, s, err)
			}
			out[w][n] = d
		}
	}
	return out, nil
}

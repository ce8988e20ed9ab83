package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	// setupSamples is the fewest fresh-process machine constructions
	// setup_s is the fastest of.
	setupSamples = 21
	// minSamples is the fewest timed operations a run takes each lap's
	// fastest run from.
	minSamples = 3
	// maxFailLines bounds the failure lines a run prints.
	maxFailLines = 10
)

// bench holds one invocation's workload, its reference results and the
// running tally of attempted and failed operations.
type bench struct {
	o     options
	sp    spec
	scale experiments.Scale
	cells []cell
	nproc int

	// want is the committed digest for this workload and seed ("" if none).
	want string
	// refCell and refKey describe the reference pass: each cell's digest
	// and Figure 7(b) row. Later operations must reproduce them.
	refCell []string
	refKey  []string
	// refBad is set when the reference pass itself failed (wrong digest or
	// broken invariant): every operation of the invocation then fails.
	refBad bool
	// served is the requests one operation completes (the grid's sum).
	served int64
	// clock laps the single-machine operations; lapEvery is the accesses
	// per lap, set by the reference pass to split a run into laps.
	clock    lapClock
	lapEvery int64

	attempted, failed, failLines int
}

func newBench(o options, sp spec) (*bench, error) {
	s := experiments.QuickScale()
	s.Seed = o.seed
	s.Requests = int64(float64(sp.requests) * o.budget)
	if s.Requests < 1 {
		s.Requests = 1
	}
	s.Parallel = runtime.GOMAXPROCS(0)
	cells, err := sp.cells(s)
	if err != nil {
		return nil, err
	}
	return &bench{o: o, sp: sp, scale: s, cells: cells, nproc: s.Parallel, want: o.expected[sp.name][o.seed]}, nil
}

func (b *bench) failf(format string, args ...any) {
	if b.failLines < maxFailLines {
		fmt.Fprintf(b.o.out, "FAIL "+format+"\n", args...)
	}
	b.failLines++
}

// reference runs every cell once (the grid on nproc workers, one recycled
// machine per worker, as Figure7b runs it), checks each result's invariants
// and the whole pass against the committed digest, and fixes what later
// operations must reproduce. It also serves as the warm-up.
func (b *bench) reference() error {
	runners := make([]*sim.CellRunner, b.nproc)
	results, err := parallel.MapWorkers(b.nproc, len(b.cells), func(worker, i int) (*sim.Result, error) {
		if runners[worker] == nil {
			runners[worker] = sim.NewCellRunner(b.cells[i].cfg)
		}
		def, w, err := b.cells[i].instance()
		if err != nil {
			return nil, err
		}
		if !b.sp.grid {
			w = b.clock.wrap(w, 0)
		}
		return runners[worker].Run(def, w, b.cells[i].limits)
	})
	b.lapEvery = max(1, (b.clock.calls+laps-1)/laps)
	b.attempted += len(b.cells)
	if err != nil {
		b.failed += len(b.cells)
		b.refBad = true
		b.failf("reference pass: %v", err)
		return err
	}
	d := digest(results)
	fmt.Fprintf(b.o.out, "digest %s seed %d %s\n", b.sp.name, b.o.seed, d)
	if b.want != "" && b.want != d {
		b.refBad = true
		b.failf("digest %s, committed %s", d, b.want)
	}
	b.served = 0
	for i, r := range results {
		b.refCell = append(b.refCell, digest(results[i:i+1]))
		b.refKey = append(b.refKey, figCellKey(figCell(b.cells[i], r)))
		b.served += r.Counters.RequestsServed
		for _, p := range checkRun(b.cells[i], r) {
			b.refBad = true
			b.failf("%s: %s", b.cells[i].label(), p)
		}
	}
	if b.refBad {
		b.failed += len(b.cells)
	}
	return nil
}

// judgeResult counts one cell run and reports whether it reproduced the
// reference result.
func (b *bench) judgeResult(i int, r *sim.Result, err error) bool {
	b.attempted++
	ok := err == nil && !b.refBad
	switch {
	case err != nil:
		b.failf("%s: %v", b.cells[i].label(), err)
	case digest([]*sim.Result{r}) != b.refCell[i]:
		ok = false
		b.failf("%s: digest %s, reference %s", b.cells[i].label(), digest([]*sim.Result{r}), b.refCell[i])
	}
	if !ok {
		b.failed++
	}
	return ok
}

// judgeGrid counts one Figure7b operation cell by cell and reports whether
// every row matched the reference pass.
func (b *bench) judgeGrid(rows []experiments.Cell, err error) bool {
	b.attempted += len(b.cells)
	if err != nil || len(rows) != len(b.cells) {
		b.failed += len(b.cells)
		b.failf("Figure7b: %d rows, error %v", len(rows), err)
		return false
	}
	bad := 0
	for i, row := range rows {
		if k := figCellKey(row); b.refBad || k != b.refKey[i] {
			bad++
			if !b.refBad {
				b.failf("Figure7b row %d: %s, reference %s", i, k, b.refKey[i])
			}
		}
	}
	b.failed += bad
	return bad == 0
}

// setupProbeEnv names the environment variable that turns the benchmark
// binary into a set-up probe: given "<workload> <seed> <budget>", it builds
// that workload's first machine once and prints the seconds sim.NewMachine
// took.
const setupProbeEnv = "BENCHREC_SETUP_PROBE"

// setupProbe runs the probe when the environment asks for one, and reports
// whether it did.
func setupProbe() (bool, error) {
	arg := os.Getenv(setupProbeEnv)
	if arg == "" {
		return false, nil
	}
	var o options
	if _, err := fmt.Sscan(arg, &o.workload, &o.seed, &o.budget); err != nil {
		return true, fmt.Errorf("%s=%q: %w", setupProbeEnv, arg, err)
	}
	sp, ok := workloadByName(o.workload)
	if !ok {
		return true, fmt.Errorf("%s: unknown workload %q", setupProbeEnv, o.workload)
	}
	if !sp.grid {
		runtime.GOMAXPROCS(1) // as the measured operations run
	}
	b, err := newBench(o, sp)
	if err != nil {
		return true, err
	}
	c := b.cells[0]
	def, w, err := c.instance()
	if err != nil {
		return true, err
	}
	t0 := time.Now()
	m, err := sim.NewMachine(c.cfg, def, w)
	d := time.Since(t0)
	if err != nil {
		return true, err
	}
	runtime.KeepAlive(m)
	fmt.Printf("%.9f\n", d.Seconds())
	return true, nil
}

// setupOnce times sim.NewMachine for the workload's first cell in a fresh
// process (this binary as a set-up probe), and returns the seconds. In one
// long-lived process only the first construction pays for fresh pages as a
// user's run does: after the heap is returned to the OS, later
// constructions took twice as long on a 2-CPU host, and after a collection
// they reuse warm pages.
func (b *bench) setupOnce() (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s %d %g", setupProbeEnv, b.sp.name, b.o.seed, b.o.budget))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	var sec float64
	if _, err := fmt.Sscan(string(out), &sec); err != nil {
		return 0, fmt.Errorf("set-up probe printed %q: %w", out, err)
	}
	return sec, nil
}

// laps is how many segments each single-machine operation is timed in.
const laps = 4096

// lapClock counts the accesses a workload's generators hand out and stamps
// the host clock every `every` of them. Runs are deterministic, so the k-th
// lap of every operation of an invocation does the same simulated work.
type lapClock struct {
	every, left, calls int64
	stamps             []time.Time
}

// lapGen forwards one core's generator and ticks the shared lapClock.
type lapGen struct {
	inner workload.Generator
	c     *lapClock
}

func (g *lapGen) Name() string { return g.inner.Name() }

func (g *lapGen) Next() workload.Access {
	a := g.inner.Next()
	c := g.c
	c.calls++
	if c.left--; c.left == 0 {
		c.left = c.every
		c.stamps = append(c.stamps, time.Now())
	}
	return a
}

// wrap returns w with every generator ticking c, stamping every `every`
// accesses (never when every is 0).
func (c *lapClock) wrap(w workload.Workload, every int64) workload.Workload {
	c.every, c.left, c.calls = every, every, 0
	c.stamps = c.stamps[:0]
	gens := make([]workload.Generator, len(w.Gens))
	for i, g := range w.Gens {
		gens[i] = &lapGen{inner: g, c: c}
	}
	w.Gens = gens
	return w
}

// operation runs and times one measured operation: one Machine.Run of the
// single cell, returned as its laps, or one experiments.Figure7b grid,
// returned as a single lap. It reports whether the output matched the
// reference.
func (b *bench) operation() ([]time.Duration, bool) {
	debug.FreeOSMemory()
	if b.sp.grid {
		t0 := time.Now()
		rows, err := experiments.Figure7b(b.scale)
		d := time.Since(t0)
		return []time.Duration{d}, b.judgeGrid(rows, err)
	}
	c := b.cells[0]
	def, w, err := c.instance()
	if err != nil {
		return nil, b.judgeResult(0, nil, err)
	}
	w = b.clock.wrap(w, b.lapEvery)
	m, err := sim.NewMachine(c.cfg, def, w)
	if err != nil {
		return nil, b.judgeResult(0, nil, err)
	}
	t0 := time.Now()
	r, err := m.Run(c.limits)
	t1 := time.Now()
	stamps := append(append([]time.Time{t0}, b.clock.stamps...), t1)
	d := make([]time.Duration, len(stamps)-1)
	for i := range d {
		d[i] = stamps[i+1].Sub(stamps[i])
	}
	return d, b.judgeResult(0, r, err)
}

// lapRank is which run of each lap, fastest first from 0, req_per_s takes.
// The grid takes its second-fastest whole operation: over five sets of six
// to ten runs on a 2-CPU host, its fastest spread 0.09–0.21 of the median
// (IQR) and its second-fastest 0.09–0.20, lower in four of the five sets.
func (b *bench) lapRank() int {
	if b.sp.grid {
		return 1
	}
	return 0
}

// endToEnd measures the end-to-end metrics with tracing off.
//
// A single-machine operation is timed in laps of equal simulated work, and
// the reported time of one operation is the sum over its laps of each lap's
// fastest run across the window's operations. On a shared host, co-tenants
// slow the program in bursts of a tenth of a second and more, and only ever
// slow it: on a 2-CPU host one s3-hammer window held whole operations from
// 0.6 to 1.05 M req/s, so any statistic of whole operations moved with
// whatever share of the window the bursts took, while a lap (a fraction
// of a millisecond) runs clean in some operation of the window. Lapping
// keeps the operation as long as the workload needs (warm caches, a full
// attack). A change to the program moves every lap, the fastest included.
// The grid is one lap, its second-fastest whole operation (see lapRank):
// its cells run on every CPU, and laps ending at successive cell
// completions (Scale.Progress) spread wider than whole operations, as the
// order cells finish in varies.
// Quartiles of whole operations are printed beside it.
//
// setup_s is the fastest of the set-up probes run after each operation (at
// least setupSamples), for the same reason. On a 2-CPU host, the median of
// 21 probes run back to back ranged ±11% over six runs under load and its
// ten-run median rose 31% between two sets of runs as the load changed;
// over the same six runs the fastest probe spread over the window ranged
// ±6%, level with the calm set's medians.
func (b *bench) endToEnd() (report, error) {
	rss, refErr := b.footprint()
	window := time.Duration(b.o.seconds * float64(time.Second))
	var ops [][]time.Duration
	var rates, setups []float64
	var last time.Duration
	start := time.Now()
	for n := 0; refErr == nil && (n < minSamples || time.Since(start)+last <= window); n++ {
		d, ok := b.operation()
		last = 0
		for _, l := range d {
			last += l
		}
		if ok && last > 0 && (len(ops) == 0 || len(d) == len(ops[0])) {
			ops = append(ops, d)
			rates = append(rates, float64(b.served)/last.Seconds())
		}
		sec, err := b.setupOnce()
		if err != nil {
			return report{}, err
		}
		setups = append(setups, sec)
		if n >= 1000*minSamples {
			break
		}
	}
	for len(setups) < setupSamples {
		sec, err := b.setupOnce()
		if err != nil {
			return report{}, err
		}
		setups = append(setups, sec)
	}
	fmt.Fprintf(b.o.out, "setup_s of %d fresh processes: %s\n", len(setups), summary(setups))
	fmt.Fprintf(b.o.out, "req_per_s of %d whole operations: %s\n", len(rates), summary(rates))
	var rate float64
	if t := lapSum(ops, b.lapRank()); t > 0 {
		rate = float64(b.served) / t
	}
	fmt.Fprintf(b.o.out, "req_per_s from each lap's run of rank %d, fastest first from 0: %.6g\n", b.lapRank(), rate)
	return b.report(map[string]metric{
		"req_per_s":   {rate, "req/s"},
		"setup_s":     {quantile(setups, 0), "s"},
		"peak_rss_mb": {rss, "MB"},
	}), nil
}

// lapSum is the sum over lap positions of that lap's rank-th fastest time
// across ops (0 the fastest; the slowest when fewer ops ran), in seconds;
// 0 without ops.
func lapSum(ops [][]time.Duration, rank int) float64 {
	if len(ops) == 0 {
		return 0
	}
	rank = min(rank, len(ops)-1)
	var sum time.Duration
	col := make([]time.Duration, len(ops))
	for i := range ops[0] {
		for k, op := range ops {
			col[k] = op[i]
		}
		slices.Sort(col)
		sum += col[rank]
	}
	return sum.Seconds()
}

// footprint runs the reference pass with the collector off, from a heap
// returned to the OS, and returns the process's peak RSS after it: one
// operation's machines and everything they allocate. With the collector on, where its cycles and the scavenger's
// returns happen to fall moved the peak by over 10% between runs.
func (b *bench) footprint() (float64, error) {
	debug.FreeOSMemory()
	gc := debug.SetGCPercent(-1)
	err := b.reference()
	rss := peakRSSMB()
	debug.SetGCPercent(gc)
	debug.FreeOSMemory()
	return rss, err
}

func (b *bench) report(m map[string]metric) report {
	return report{Correct: b.failed == 0 && b.attempted > 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// summary renders min, quartiles, 90th percentile and max of v.
func summary(v []float64) string {
	if len(v) == 0 {
		return "none"
	}
	s := append([]float64(nil), v...)
	return fmt.Sprintf("min %.6g q1 %.6g median %.6g q3 %.6g p90 %.6g max %.6g",
		quantile(s, 0), quantile(s, 0.25), median(s), quantile(s, 0.75), quantile(s, 0.9), quantile(s, 1))
}

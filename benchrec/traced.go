package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/parallel"
	"repro/internal/probe"
	"repro/internal/sim"
)

// endToEndMetrics and layerMetrics name every metric the benchmark prints,
// with its unit; BENCHMARK.json lists the same names (the self-test checks).
var endToEndMetrics = [][2]string{
	{"req_per_s", "req/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

var layerMetrics = [][2]string{
	{"workload.next_ns", "ns"},
	{"workload.next_calls", "count"},
	{"defense.on_activate_ns", "ns"},
	{"defense.on_activate_calls", "count"},
	{"defense.on_refresh_ns", "ns"},
	{"defense.action_ratio", "ratio"},
	{"core.detections", "count"},
	{"core.entries_pruned", "count"},
	{"core.spills", "count"},
	{"core.max_occupancy", "count"},
	{"sim.run_self_ns_per_req", "ns/req"},
	{"sim.reuse_ms", "ms"},
	{"sim.alloc_bytes_per_req", "B/req"},
	{"cache.access_ns", "ns"},
	{"cache.hit_ratio", "ratio"},
	{"cache.mem_per_access", "ratio"},
	{"cache.replay_accesses", "count"},
	{"cache.insitu_accesses", "count"},
	{"mc.step_ns", "ns"},
	{"mc.steps", "count"},
	{"mc.enqueue_retry_ratio", "ratio"},
	{"mc.row_hit_ratio", "ratio"},
	{"mc.replay_requests", "count"},
	{"mc.insitu_requests", "count"},
	{"timing.check_ns", "ns"},
	{"dram.act_ns", "ns"},
	{"dram.ref_ns", "ns"},
	{"dram.arr_ns", "ns"},
	{"dram.refs", "count"},
	{"dram.insitu_refs", "count"},
	{"dram.replay_acts", "count"},
	{"dram.insitu_acts", "count"},
	{"dram.new_device_ms", "ms"},
	{"dram.reset_ms", "ms"},
	{"probe.overhead_ratio", "ratio"},
	{"parallel.speedup", "ratio"},
	{"experiments.cell_s_max", "s"},
	{"sim.residual_ratio", "ratio"},
	{"bench.trace_overhead_ratio", "ratio"},
}

// deviceSamples is how many constructions, resets and reuses the device and
// machine set-up metrics are medians of.
const deviceSamples = 5

// ledger accumulates the traced run's measurements over the cells.
type ledger struct {
	plainWall, probedWall, tracedWall  time.Duration
	served, allocBytes                 int64
	insituCache, insituACTs, insituREF int64

	next, act, ref seam
	acted          int64
	totals         probe.EventTotals
	maxOcc         int

	cache              cacheLeg
	mc                 mcLeg
	timing             timingLeg
	dramACTs, dramREFs int64
	dramWall           time.Duration
	dramRef, dramArr   seam
	replayErrors       int64
	mcDefenseNs        float64
}

// traced runs the per-layer ledger: the cells untraced (twice), with a
// probe.Recorder attached, and with the generator and defense wrapped in
// situ; then the replay legs on the captured streams, the set-up legs and
// the grid-parallelism leg. Every run is checked against the reference.
func (b *bench) traced() (report, error) {
	tr := newTracer(fmt.Sprintf("%s/seed%d", b.sp.name, b.o.seed))
	root := tr.begin("bench.traced_run", -1)
	cost := clockCost()
	fmt.Fprintf(b.o.out, "clock read cost %.1f ns, subtracted per call from the in-situ seams\n", cost)
	metrics := map[string]metric{}
	for _, m := range layerMetrics {
		metrics[m[0]] = metric{0, m[1]}
	}
	set := func(name string, v float64) { metrics[name] = metric{v, metrics[name].Unit} }

	if _, err := tr.timed("bench.reference", root, b.reference); err != nil {
		return b.report(metrics), nil
	}
	var l ledger
	b.plainPasses(tr, root, &l)
	b.probedPass(tr, root, &l)
	var dev *dram.Device
	for i := range b.cells {
		d, err := b.tracedCell(tr, root, i, cost, &l)
		if err != nil {
			return report{}, err
		}
		if d != nil {
			dev = d
		}
	}
	newDev, resetDev, err := b.deviceLegs(tr, root, dev)
	if err != nil {
		return report{}, err
	}
	reuse, err := b.reuseLeg(tr, root)
	if err != nil {
		return report{}, err
	}
	speedup, cellMax := b.parallelLeg(tr, root)
	tr.end(root)

	p := b.cells[0].cfg.DRAM
	plain := float64(l.plainWall)
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	inSituChildren := l.next.net(cost) + l.act.net(cost) + l.ref.net(cost)
	set("workload.next_ns", l.next.perCall(cost))
	set("workload.next_calls", float64(l.next.calls))
	set("defense.on_activate_ns", l.act.perCall(cost))
	set("defense.on_activate_calls", float64(l.act.calls))
	set("defense.on_refresh_ns", l.ref.perCall(cost))
	set("defense.action_ratio", div(float64(l.acted), float64(l.act.calls)))
	set("core.detections", float64(l.totals.Detections))
	set("core.entries_pruned", float64(l.totals.EntriesPruned))
	set("core.spills", float64(l.totals.Spills))
	set("core.max_occupancy", float64(l.maxOcc))
	set("sim.run_self_ns_per_req", div(plain-inSituChildren, float64(l.served)))
	set("sim.reuse_ms", reuse)
	set("sim.alloc_bytes_per_req", div(float64(l.allocBytes), float64(l.served)))
	cacheNs := div(float64(l.cache.wall), float64(l.cache.accesses))
	set("cache.access_ns", cacheNs)
	set("cache.hit_ratio", div(float64(l.cache.hits), float64(l.cache.accesses)))
	set("cache.mem_per_access", div(float64(l.cache.mem), float64(l.cache.accesses)))
	set("cache.replay_accesses", float64(l.cache.accesses))
	set("cache.insitu_accesses", float64(l.insituCache))
	set("mc.step_ns", div(float64(l.mc.wall), float64(l.mc.steps)))
	set("mc.steps", float64(l.mc.steps))
	set("mc.enqueue_retry_ratio", div(float64(l.mc.retries), float64(l.mc.attempts)))
	rb := l.mc.cnt.RowHits + l.mc.cnt.RowMisses + l.mc.cnt.RowConflicts
	set("mc.row_hit_ratio", div(float64(l.mc.cnt.RowHits), float64(rb)))
	set("mc.replay_requests", float64(l.mc.requests))
	set("mc.insitu_requests", float64(l.served))
	set("timing.check_ns", div(float64(l.timing.wall), float64(l.timing.commands)))
	set("dram.act_ns", div(float64(l.dramWall)-float64(l.dramRef.ns)-float64(l.dramArr.ns), float64(l.dramACTs)))
	set("dram.ref_ns", l.dramRef.perCall(cost))
	set("dram.arr_ns", l.dramArr.perCall(cost))
	set("dram.refs", float64(l.dramREFs))
	set("dram.insitu_refs", float64(l.insituREF))
	set("dram.replay_acts", float64(l.dramACTs))
	set("dram.insitu_acts", float64(l.insituACTs))
	set("dram.new_device_ms", newDev)
	set("dram.reset_ms", resetDev)
	set("probe.overhead_ratio", div(float64(l.probedWall), plain))
	set("parallel.speedup", speedup)
	set("experiments.cell_s_max", cellMax)
	set("bench.trace_overhead_ratio", div(float64(l.tracedWall), plain))
	// The residual: the part of the untraced Run wall time the layers below
	// sim do not account for, each layer's ns per event times its in-situ
	// event count. The controller replay hosts the defense, the timing
	// checker and the device, so its defense time (the in-situ ns per call
	// times the replay's calls) is taken out and the rest is scaled per
	// request; the timing and DRAM legs sit inside it and are not added.
	mcExcl := float64(l.mc.wall) - l.mcDefenseNs
	if mcExcl < 0 {
		mcExcl = 0
	}
	accounted := inSituChildren + cacheNs*float64(l.insituCache) + div(mcExcl, float64(l.mc.requests))*float64(l.served)
	set("sim.residual_ratio", 1-div(accounted, plain))

	if l.replayErrors > 0 {
		fmt.Fprintf(b.o.out, "WARNING %d replay commands diverged from the controller\n", l.replayErrors)
	}
	fmt.Fprintf(b.o.out, "untraced Machine.Run %.1f ns/req over %d requests\n", div(plain, float64(l.served)), l.served)
	fmt.Fprintf(b.o.out, "replay vs in situ: cache accesses %d vs generator calls %d (in-situ cache accesses %d); controller requests %d vs %d; ACTs %d vs %d; REFs %d vs %d (tREFI %v)\n",
		l.cache.accesses, l.next.calls, l.insituCache, l.mc.requests, l.served, l.dramACTs, l.insituACTs, l.dramREFs, l.insituREF, p.TREFI)
	path, err := tr.write(b.o.spanDir, fmt.Sprintf("%s-seed%d.json", b.sp.name, b.o.seed))
	if err != nil {
		return report{}, err
	}
	fmt.Fprintf(b.o.out, "spans %d written to %s\n", len(tr.spans), path)
	return b.report(metrics), nil
}

// runCell builds a fresh machine for cell i and times its Run. prepare,
// when set, runs on the machine (probe attachment) before the timed region.
func (b *bench) runCell(i int, prepare func(*sim.Machine)) (*sim.Machine, *sim.Result, time.Duration, error) {
	c := b.cells[i]
	def, w, err := c.instance()
	if err != nil {
		return nil, nil, 0, err
	}
	m, err := sim.NewMachine(c.cfg, def, w)
	if err != nil {
		return nil, nil, 0, err
	}
	if prepare != nil {
		prepare(m)
	}
	t0 := time.Now()
	r, err := m.Run(c.limits)
	return m, r, time.Since(t0), err
}

// plainPasses runs every cell untraced twice; the faster pass is the
// baseline wall time, the second also measures allocation per request.
func (b *bench) plainPasses(tr *tracer, root int, l *ledger) {
	walls := [2]time.Duration{}
	for pass := range walls {
		ps := tr.begin("pass.untraced", root)
		var ms0, ms1 runtime.MemStats
		for i := range b.cells {
			runtime.ReadMemStats(&ms0)
			id := tr.begin("sim.Machine.Run", ps)
			_, r, d, err := b.runCell(i, nil)
			tr.end(id)
			runtime.ReadMemStats(&ms1)
			if !b.judgeResult(i, r, err) {
				continue
			}
			walls[pass] += d
			if pass == 1 {
				l.allocBytes += int64(ms1.TotalAlloc - ms0.TotalAlloc)
				l.served += r.Counters.RequestsServed
				l.insituCache += r.Counters.CacheHits + r.Counters.CacheMisses
				l.insituACTs += r.Counters.NormalACTs
				l.insituREF += r.Counters.Refreshes
			}
		}
		tr.end(ps)
	}
	l.plainWall = min(walls[0], walls[1])
}

// probedPass runs every cell with a probe.Recorder attached and sums its
// TWiCe table totals.
func (b *bench) probedPass(tr *tracer, root int, l *ledger) {
	ps := tr.begin("pass.probed", root)
	defer tr.end(ps)
	for i := range b.cells {
		rec := probe.NewRecorder(probe.Config{})
		id := tr.begin("sim.Machine.Run", ps)
		_, r, d, err := b.runCell(i, func(m *sim.Machine) { m.SetRecorder(rec) })
		tr.end(id)
		if !b.judgeResult(i, r, err) {
			continue
		}
		l.probedWall += d
		t := rec.Totals()
		l.totals.Detections += t.Detections
		l.totals.EntriesPruned += t.EntriesPruned
		l.totals.Spills += t.Spills
		l.maxOcc = max(l.maxOcc, rec.MaxOccupancy())
	}
}

// tracedCell runs cell i with its generators and defense wrapped in situ,
// then replays what it captured into the cache, controller, timing and
// DRAM legs. It returns the DRAM replay's (dirtied) device, or nil when
// the wrapped run failed its check (counted; nothing is replayed).
func (b *bench) tracedCell(tr *tracer, root, i int, cost float64, l *ledger) (*dram.Device, error) {
	c := b.cells[i]
	ps := tr.begin("pass.traced "+c.label(), root)
	defer tr.end(ps)
	def, w, err := c.instance()
	if err != nil {
		return nil, err
	}
	var next, act, ref seam
	var acted int64
	var stream []access
	w = wrapWorkload(w, &next, &stream)
	m, err := sim.NewMachine(c.cfg, &timedDefense{inner: def, act: &act, ref: &ref, acted: &acted}, w)
	if err != nil {
		return nil, err
	}
	run := tr.begin("sim.Machine.Run", ps)
	t0 := time.Now()
	r, err := m.Run(c.limits)
	d := time.Since(t0)
	tr.end(run)
	tr.seam("workload.Generator.Next", run, &next)
	tr.seam("defense.OnActivate", run, &act)
	tr.seam("defense.OnRefreshTick", run, &ref)
	if !b.judgeResult(i, r, err) {
		return nil, nil
	}
	l.tracedWall += d
	for _, s := range []struct{ dst, src *seam }{{&l.next, &next}, {&l.act, &act}, {&l.ref, &ref}} {
		s.dst.calls += s.src.calls
		s.dst.ns += s.src.ns
	}
	l.acted += acted

	cores := w.Cores()
	id := tr.begin("cache.Hierarchy.Access replay", ps)
	cl, err := replayCache(c, cores, stream, !w.BypassCache)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	l.cache.accesses += cl.accesses
	l.cache.hits += cl.hits
	l.cache.mem += cl.mem
	l.cache.wall += cl.wall
	memStream := cl.out
	if w.BypassCache {
		memStream = stream
	}

	id = tr.begin("mc.System replay", ps)
	ml, err := replayMC(c, memStream, r.SimTime, int64(c.cfg.CPU.MLP*cores))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	stream, memStream, cl.out = nil, nil, nil
	l.mc.requests += ml.requests
	l.mc.attempts += ml.attempts
	l.mc.retries += ml.retries
	l.mc.steps += ml.steps
	l.mc.wall += ml.wall
	l.mc.cnt.Merge(ml.cnt)
	banks := int64(c.cfg.DRAM.BanksPerRank)
	l.mcDefenseNs += act.perCall(cost)*float64(ml.cnt.NormalACTs) + ref.perCall(cost)*float64(ml.cnt.Refreshes*banks)

	id = tr.begin("timing.Checker replay", ps)
	tl := replayTiming(c, ml.trace)
	tr.end(id)
	l.timing.commands += tl.commands
	l.timing.wall += tl.wall
	l.replayErrors += tl.errors

	id = tr.begin("dram.Device replay", ps)
	dl, err := replayDRAM(c, ml.trace, ml.log)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	tr.seam("dram.Bank.AutoRefresh", id, &dl.ref)
	if dl.arr.calls == 0 {
		dl.arr = arrStandalone(dl.dev, 1000)
	}
	tr.seam("dram.Bank.AdjacentRowRefresh", id, &dl.arr)
	l.dramACTs += dl.acts
	l.dramREFs += dl.refs
	l.dramWall += dl.wall
	l.replayErrors += dl.errors
	for _, s := range []struct{ dst, src *seam }{{&l.dramRef, &dl.ref}, {&l.dramArr, &dl.arr}} {
		s.dst.calls += s.src.calls
		s.dst.ns += s.src.ns
	}
	return dl.dev, nil
}

// deviceLegs times dram.NewDevice for the workload's geometry and remap
// seed, and Device.Reset starting from the DRAM replay's dirtied device.
func (b *bench) deviceLegs(tr *tracer, root int, dev *dram.Device) (newMs, resetMs float64, err error) {
	cfg := b.cells[0].cfg
	if dev == nil {
		if dev, err = dram.NewDevice(cfg.DRAM, remapRNG(cfg)); err != nil {
			return 0, 0, err
		}
	}
	var nv, rv []float64
	for k := 0; k < deviceSamples; k++ {
		var d *dram.Device
		t, err := tr.timed("dram.NewDevice", root, func() error {
			var err error
			d, err = dram.NewDevice(cfg.DRAM, remapRNG(cfg))
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		nv = append(nv, float64(t)/1e6)
		t, _ = tr.timed("dram.Device.Reset", root, func() error { dev.Reset(); return nil })
		rv = append(rv, float64(t)/1e6)
		runtime.KeepAlive(d)
	}
	return median(nv), median(rv), nil
}

// reuseLeg times Machine.Reuse on a machine that has just run the
// workload's first cell, re-arming it with a fresh defense and workload.
func (b *bench) reuseLeg(tr *tracer, root int) (float64, error) {
	m, r, _, err := b.runCell(0, nil)
	if !b.judgeResult(0, r, err) || m == nil {
		return 0, nil
	}
	var v []float64
	for k := 0; k < deviceSamples; k++ {
		def, w, err := b.cells[0].instance()
		if err != nil {
			return 0, err
		}
		t, err := tr.timed("sim.Machine.Reuse", root, func() error { return m.Reuse(def, w) })
		if err != nil {
			return 0, err
		}
		v = append(v, float64(t)/1e6)
	}
	return median(v), nil
}

// parallelLeg runs a grid serially and on nproc workers and returns the
// speedup and the slowest cell of the serial run (from its per-cell
// completion times). The grid is experiments.Figure7b for fig7b-grid and
// nproc independent runs of the workload's machine otherwise.
func (b *bench) parallelLeg(tr *tracer, root int) (speedup, cellMax float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(b.nproc))
	serialID := tr.begin("parallel.serial", root)
	t0 := time.Now()
	var stamps []time.Time
	progress := func(done, total int) { stamps = append(stamps, time.Now()) }
	if b.sp.grid {
		s := b.scale
		s.Parallel = 1
		s.Progress = progress
		b.judgeGrid(experiments.Figure7b(s))
	} else {
		b.copies(parallel.Runner{Workers: 1, OnDone: progress})
	}
	serial := tr.end(serialID)
	prev := t0
	for _, s := range stamps {
		tr.interval("experiments.cell", serialID, prev, s)
		cellMax = max(cellMax, s.Sub(prev).Seconds())
		prev = s
	}

	parID := tr.begin("parallel.workers", root)
	if b.sp.grid {
		b.judgeGrid(experiments.Figure7b(b.scale))
	} else {
		b.copies(parallel.Runner{Workers: b.nproc})
	}
	par := tr.end(parID)
	return serial.Seconds() / par.Seconds(), cellMax
}

// copies runs nproc independent machines of the workload's cell on the
// runner and judges them afterwards (judging is not concurrency-safe).
func (b *bench) copies(r parallel.Runner) {
	n := max(b.nproc, 2)
	res, err := parallel.MapOn(r, n, func(int) (*sim.Result, error) {
		_, res, _, err := b.runCell(0, nil)
		return res, err
	})
	for k := 0; k < n; k++ {
		if err != nil {
			b.judgeResult(0, nil, err)
		} else {
			b.judgeResult(0, res[k], nil)
		}
	}
}

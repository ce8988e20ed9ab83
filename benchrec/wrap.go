package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/clock"
	"repro/internal/defense"
	"repro/internal/dram"
	"repro/internal/probe"
	"repro/internal/workload"
)

// seam aggregates the calls made through one in-situ wrapper: a per-call
// span would cost more memory than the run, so each seam keeps a count, the
// summed duration, and the first start and last end.
type seam struct {
	calls       int64
	ns          int64
	first, last time.Time
}

func (s *seam) add(t0 time.Time) {
	t1 := time.Now()
	if s.calls == 0 {
		s.first = t0
	}
	s.last = t1
	s.calls++
	s.ns += int64(t1.Sub(t0))
}

// net is the seam's time with the clock reads' own cost removed (one clock
// read per call, measured by clockCost).
func (s *seam) net(cost float64) float64 {
	v := float64(s.ns) - cost*float64(s.calls)
	if v < 0 {
		return 0
	}
	return v
}

// perCall is the seam's net ns per call, 0 without calls.
func (s *seam) perCall(cost float64) float64 {
	if s.calls == 0 {
		return 0
	}
	return s.net(cost) / float64(s.calls)
}

// clockCost measures what one time.Now/time.Since pair adds to a timed
// interval: the median over many empty intervals.
func clockCost() float64 {
	const n = 20001
	v := make([]float64, n)
	for i := range v {
		t0 := time.Now()
		v[i] = float64(time.Since(t0))
	}
	return median(v)
}

// access is one captured memory access, in the global order the cores
// issued them. demand marks an access the core waits for (a generator
// access on a cache-bypassing workload, a read fill otherwise).
type access struct {
	addr   uint64
	core   int32
	write  bool
	demand bool
}

// timedGen wraps one core's generator: it times Next and records the
// access stream the replay legs feed to the cache and controller.
type timedGen struct {
	inner workload.Generator
	core  int32
	next  *seam
	log   *[]access
}

func (g *timedGen) Name() string { return g.inner.Name() }

func (g *timedGen) Next() workload.Access {
	t0 := time.Now()
	a := g.inner.Next()
	g.next.add(t0)
	*g.log = append(*g.log, access{addr: a.Addr, core: g.core, write: a.Write, demand: true})
	return a
}

// wrapWorkload returns w with every generator timed into next and logged
// into log.
func wrapWorkload(w workload.Workload, next *seam, log *[]access) workload.Workload {
	gens := make([]workload.Generator, len(w.Gens))
	for i, g := range w.Gens {
		gens[i] = &timedGen{inner: g, core: int32(i), next: next, log: log}
	}
	w.Gens = gens
	return w
}

// timedDefense wraps a defense in situ: it times OnActivate and
// OnRefreshTick, counts the activations that asked for work, and forwards
// Name and the probe attachment so the run is otherwise unchanged.
type timedDefense struct {
	inner    defense.Defense
	act, ref *seam
	acted    *int64
}

func (d *timedDefense) Name() string { return d.inner.Name() }

func (d *timedDefense) OnActivate(bank dram.BankID, row int, now clock.Time) defense.Action {
	t0 := time.Now()
	a := d.inner.OnActivate(bank, row, now)
	d.act.add(t0)
	if !a.Empty() {
		*d.acted++
	}
	return a
}

func (d *timedDefense) OnRefreshTick(bank dram.BankID, now clock.Time) {
	t0 := time.Now()
	d.inner.OnRefreshTick(bank, now)
	d.ref.add(t0)
}

func (d *timedDefense) Reset() { d.inner.Reset() }

func (d *timedDefense) SetProbes(r *probe.Recorder) {
	if in, ok := d.inner.(probe.Instrumented); ok {
		in.SetProbes(r)
	}
}

// mitOp is one unit of mitigation work the controller queues for a bank:
// a victim row refresh on the device, or defense-internal traffic (row < 0).
type mitOp struct{ row int }

// actionLog wraps the defense of the controller replay and keeps, per flat
// bank, the aggressor rows filed for ARR and the mitigation ops queued, in
// the order the controller will execute them. The DRAM replay pops them, as
// the controller's command trace names the bank but not these rows.
type actionLog struct {
	inner defense.Defense
	p     dram.Params
	arr   [][]int
	mit   [][]mitOp
}

func newActionLog(def defense.Defense, p dram.Params) *actionLog {
	return &actionLog{inner: def, p: p, arr: make([][]int, p.TotalBanks()), mit: make([][]mitOp, p.TotalBanks())}
}

func (l *actionLog) Name() string { return l.inner.Name() }

func (l *actionLog) OnActivate(bank dram.BankID, row int, now clock.Time) defense.Action {
	a := l.inner.OnActivate(bank, row, now)
	if a.Empty() {
		return a
	}
	i := bank.Flat(&l.p)
	l.arr[i] = append(l.arr[i], a.ARRAggressors...)
	for _, v := range a.LogicalVictims {
		if v >= 0 && v < l.p.RowsPerBank {
			l.mit[i] = append(l.mit[i], mitOp{row: v})
		}
	}
	for k := 0; k < a.ExtraAccesses; k++ {
		l.mit[i] = append(l.mit[i], mitOp{row: -1})
	}
	return a
}

func (l *actionLog) OnRefreshTick(bank dram.BankID, now clock.Time) { l.inner.OnRefreshTick(bank, now) }

func (l *actionLog) Reset() { l.inner.Reset() }

// span is one traced interval. Spans of one benchmark run share Run; an
// aggregated per-call seam carries its call count and summed duration.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Run     string `json:"run"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Calls   int64  `json:"calls,omitempty"`
	TotalNs int64  `json:"total_ns,omitempty"`
}

// tracer keeps the spans in memory until the run ends.
type tracer struct {
	run   string
	t0    time.Time
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// begin opens a span under parent (-1 for the root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, StartNs: int64(time.Since(t.t0))})
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	t.spans[id].EndNs = int64(time.Since(t.t0))
	return time.Duration(t.spans[id].EndNs - t.spans[id].StartNs)
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent int, fn func() error) (time.Duration, error) {
	id := t.begin(name, parent)
	err := fn()
	return t.end(id), err
}

// interval records an already measured interval as a span.
func (t *tracer) interval(name string, parent int, start, end time.Time) {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Run: t.run, Name: name,
		StartNs: int64(start.Sub(t.t0)), EndNs: int64(end.Sub(t.t0))})
}

// seam records an aggregated per-call seam under parent.
func (t *tracer) seam(name string, parent int, s *seam) {
	if s.calls == 0 {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Run: t.run, Name: name,
		StartNs: int64(s.first.Sub(t.t0)), EndNs: int64(s.last.Sub(t.t0)), Calls: s.calls, TotalNs: s.ns})
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}

// quantile returns the nearest-rank q-quantile of v (v is reordered); 0
// for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	return v[max(i, 0)]
}

// median of v (v is reordered); 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

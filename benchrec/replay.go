package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/dram"
	"repro/internal/mc"
	"repro/internal/rcd"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timing"
)

// The replay legs time the layers the event loop interleaves: each feeds a
// stream captured in situ into a standalone instance of one module, built
// through its exported constructor, and times only that module's calls.

// Command opcodes of mc.TraceEvent.Op.
const (
	opPRE int8 = 1 + iota
	opREF
	opARR
	opMit
	opACT
	opColumn
)

// retryDelay spaces the controller replay's retries after a full queue, as
// the simulator spaces a core's.
const retryDelay = 100 * clock.Nanosecond

// cacheLeg is the cache hierarchy replay of a captured access stream.
type cacheLeg struct {
	accesses, hits, mem int64
	wall                time.Duration
	// out is the memory traffic the hierarchy produced (fills, prefetches
	// and writebacks), which the controller replay consumes.
	out []access
}

// replayCache feeds the per-core access stream into a fresh
// cache.NewHierarchy twice: once timed, once capturing its memory traffic.
func replayCache(c cell, cores int, stream []access, capture bool) (cacheLeg, error) {
	hcfg := c.cfg.Cache
	hcfg.Cores = cores
	h, err := cache.NewHierarchy(hcfg)
	if err != nil {
		return cacheLeg{}, err
	}
	var leg cacheLeg
	t0 := time.Now()
	for _, a := range stream {
		r := h.Access(int(a.core), a.addr&^63, a.write)
		if r.HitLevel > 0 {
			leg.hits++
		}
		leg.mem += int64(len(r.Mem))
	}
	leg.wall = time.Since(t0)
	leg.accesses = int64(len(stream))
	if !capture {
		return leg, nil
	}
	if h, err = cache.NewHierarchy(hcfg); err != nil {
		return cacheLeg{}, err
	}
	leg.out = make([]access, 0, leg.mem)
	for _, a := range stream {
		for _, m := range h.Access(int(a.core), a.addr&^63, a.write).Mem {
			leg.out = append(leg.out, access{addr: m.Addr, core: a.core, write: m.Write, demand: m.Demand})
		}
	}
	return leg, nil
}

// command is one issued DRAM command of the controller replay's trace.
type command struct {
	t              clock.Time
	row            int32
	op             int8
	ch, rank, bank uint8
	write          bool
}

func (e command) bank3() dram.BankID {
	return dram.BankID{Channel: int(e.ch), Rank: int(e.rank), Bank: int(e.bank)}
}

// mcLeg is the controller replay.
type mcLeg struct {
	requests, attempts, retries, steps int64
	wall                               time.Duration
	cnt                                stats.Counters
	trace                              []command
	log                                *actionLog
}

// remapRNG is the remap-table source sim.NewMachine uses for cfg.
func remapRNG(cfg sim.Config) *rand.Rand {
	if !cfg.Remap {
		return nil
	}
	return rand.New(rand.NewSource(cfg.Seed))
}

// replayMC feeds a memory access stream into a standalone mc.New system
// hosting the cell's defense. Accesses arrive no earlier than the in-situ
// run's mean rate allows (span of simulated time over the stream), so the
// replay covers about the same simulated time and refresh work, and no more
// than window demand accesses are in flight at once, as the cores' MLP
// windows bound the in-situ queues (prefetches and writebacks are not
// bounded). A full queue defers the rest of the stream by
// retryDelay. The loop around Enqueue/NextEvent/Advance is timed; the
// command trace the system emits (SetTrace) feeds the timing and DRAM legs.
func replayMC(c cell, stream []access, span clock.Time, window int64) (*mcLeg, error) {
	cfg := c.cfg
	dev, err := dram.NewDevice(cfg.DRAM, remapRNG(cfg))
	if err != nil {
		return nil, err
	}
	amap, err := mc.NewAddrMap(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	def, err := c.defense()
	if err != nil {
		return nil, err
	}
	leg := &mcLeg{log: newActionLog(def, cfg.DRAM), trace: make([]command, 0, 3*len(stream))}
	sys, err := mc.New(cfg.MC, dev, rcd.New(cfg.DRAM, leg.log), &leg.cnt)
	if err != nil {
		return nil, err
	}
	sys.SetTrace(func(ev mc.TraceEvent) {
		leg.trace = append(leg.trace, command{t: ev.T, row: int32(ev.Row), op: ev.Op,
			ch: uint8(ev.Channel), rank: uint8(ev.Rank), bank: uint8(ev.Bank), write: ev.Write})
	})
	var free []*mc.Request
	sys.SetRelease(func(q *mc.Request) { free = append(free, q) })
	var served, demandServed int64
	done := func(clock.Time) { served++ }
	demandDone := func(clock.Time) { served++; demandServed++ }
	n := int64(len(stream))
	arrival := func(i int64) clock.Time { return clock.Time(int64(span) * i / n) }

	steps0 := sys.Steps()
	now, retryAt := clock.Time(0), clock.Time(0)
	var i, demand int64
	open := func() bool { return !stream[i].demand || demand-demandServed < window }
	t0 := time.Now()
	for i < n {
		for i < n && open() && arrival(i) <= now && retryAt <= now {
			var q *mc.Request
			if k := len(free); k > 0 {
				q, free = free[k-1], free[:k-1]
			} else {
				q = &mc.Request{}
			}
			a := stream[i]
			*q = mc.Request{ID: sys.NewID(), Addr: amap.Decompose(a.addr &^ 63), Write: a.write, Core: int(a.core), Done: done}
			if a.demand {
				q.Done = demandDone
			}
			leg.attempts++
			if !sys.Enqueue(q, now) {
				free = append(free, q)
				leg.retries++
				retryAt = now + retryDelay
				break
			}
			if a.demand {
				demand++
			}
			i++
		}
		next := sys.NextEvent()
		if i < n && open() {
			next = clock.Min(next, clock.Max(arrival(i), retryAt))
		}
		if next == clock.Never {
			return nil, fmt.Errorf("%s: controller replay stalled at %v with %d of %d served", c.label(), now, served, n)
		}
		if next > now {
			now = next
		}

		sys.Advance(now)
	}
	// Drain as the simulator does after its last request: two tREFI more,
	// which completes everything but writes parked below the write
	// buffer's low-water mark.
	for end := now + 2*cfg.DRAM.TREFI; sys.NextEvent() <= end; {
		now = sys.NextEvent()
		sys.Advance(now)
	}
	leg.wall = time.Since(t0)
	leg.steps = sys.Steps() - steps0
	leg.requests = served
	return leg, nil
}

// pageCloser mirrors the controller's page policy: after a column command
// it reports whether the controller precharged the bank in the same step
// (the trace records no separate PRE for that).
type pageCloser struct {
	cfg  mc.Config
	hits []int
}

func newPageCloser(cfg mc.Config) *pageCloser {
	return &pageCloser{cfg: cfg, hits: make([]int, cfg.DRAM.TotalBanks())}
}

func (p *pageCloser) reset(i int) { p.hits[i] = 0 }

func (p *pageCloser) column(i int) bool {
	p.hits[i]++
	if p.cfg.PagePolicy == mc.ClosedPage || (p.cfg.PagePolicy == mc.MinimalistOpen && p.hits[i] >= p.cfg.MaxRowHits) {
		p.hits[i] = 0
		return true
	}
	return false
}

// timingLeg is the timing-checker replay.
type timingLeg struct {
	commands, errors int64
	wall             time.Duration
}

// timingSink keeps the replay's Earliest* results observable.
var timingSink clock.Time

// replayTiming drives a fresh timing.NewChecker through the command trace:
// for each command the Earliest* query the scheduler makes, then the
// Record* call the controller makes (plus the precharge that follows a
// mitigation ACT or closes the page after a column access). A Record error
// means the replay diverged from the controller and is counted.
func replayTiming(c cell, trace []command) timingLeg {
	p := c.cfg.DRAM
	chk := timing.NewChecker(p)
	pc := newPageCloser(c.cfg.MC)
	var leg timingLeg
	var sink clock.Time
	t0 := time.Now()
	for _, e := range trace {
		id := e.bank3()
		var err error
		switch e.op {
		case opPRE:
			sink += chk.EarliestPRE(id, e.t)
			err = chk.RecordPRE(id, e.t)
			pc.reset(id.Flat(&p))
		case opREF:
			sink += chk.EarliestREF(id.RankID(), e.t)
			err = chk.RecordREF(id.RankID(), e.t)
		case opARR:
			sink += chk.EarliestARR(id, e.t)
			err = chk.RecordARR(id, e.t)
		case opMit:
			sink += chk.EarliestACT(id, e.t)
			if err = chk.RecordACT(id, e.t); err == nil {
				err = chk.RecordPRE(id, chk.EarliestPRE(id, e.t))
			}
		case opACT:
			sink += chk.EarliestACT(id, e.t)
			err = chk.RecordACT(id, e.t)
			pc.reset(id.Flat(&p))
		case opColumn:
			sink += chk.EarliestColumn(id, e.t)
			if e.write {
				_, err = chk.RecordWrite(id, e.t)
			} else {
				_, err = chk.RecordRead(id, e.t)
			}
			if err == nil && pc.column(id.Flat(&p)) {
				err = chk.RecordPRE(id, chk.EarliestPRE(id, e.t))
			}
		}
		if err != nil {
			leg.errors++
		}
	}
	leg.wall = time.Since(t0)
	leg.commands = int64(len(trace))
	timingSink = sink
	return leg
}

// dramLeg is the DRAM device replay.
type dramLeg struct {
	acts, refs, errors int64
	wall               time.Duration
	ref, arr           seam
	dev                *dram.Device
}

// replayDRAM applies the command trace to a fresh dram.NewDevice (same
// parameters and remap seed as the machine): ACT → Bank.Activate, PRE and
// page closes → Precharge, REF → AutoRefresh on every bank of the rank, ARR
// → AdjacentRowRefresh of the aggressor the defense filed, mitigation ops →
// an Activate/Precharge of the victim. REF and ARR are timed per call; the
// rest of the loop is attributed to ACT. A device error means the replay
// diverged from the controller and is counted.
func replayDRAM(c cell, trace []command, log *actionLog) (dramLeg, error) {
	p := c.cfg.DRAM
	dev, err := dram.NewDevice(p, remapRNG(c.cfg))
	if err != nil {
		return dramLeg{}, err
	}
	arrNext := make([]int, len(log.arr))
	mitNext := make([]int, len(log.mit))
	pc := newPageCloser(c.cfg.MC)
	leg := dramLeg{dev: dev}
	t0 := time.Now()
	for _, e := range trace {
		id := e.bank3()
		i := id.Flat(&p)
		b := dev.Bank(id)
		var err error
		switch e.op {
		case opPRE:
			b.Precharge()
			pc.reset(i)
		case opREF:
			s := time.Now()
			for ba := 0; ba < p.BanksPerRank && err == nil; ba++ {
				err = dev.Bank(dram.BankID{Channel: id.Channel, Rank: id.Rank, Bank: ba}).AutoRefresh(e.t)
			}
			leg.ref.add(s)
			leg.refs++
		case opARR:
			if arrNext[i] >= len(log.arr[i]) {
				err = fmt.Errorf("ARR on %v with no aggressor filed", id)
				break
			}
			row := log.arr[i][arrNext[i]]
			arrNext[i]++
			s := time.Now()
			_, err = b.AdjacentRowRefresh(row, e.t)
			leg.arr.add(s)
		case opMit:
			if mitNext[i] >= len(log.mit[i]) {
				err = fmt.Errorf("mitigation on %v with none queued", id)
				break
			}
			op := log.mit[i][mitNext[i]]
			mitNext[i]++
			if op.row >= 0 {
				err = b.Activate(op.row, e.t)
				b.Precharge()
			}
		case opACT:
			err = b.Activate(int(e.row), e.t)
			leg.acts++
			pc.reset(i)
		case opColumn:
			if pc.column(i) {
				b.Precharge()
			}
		}
		if err != nil {
			leg.errors++
		}
	}
	leg.wall = time.Since(t0)
	return leg, nil
}

// arrStandalone times AdjacentRowRefresh on bank 0 of dev directly, for
// workloads whose trace carries no ARR.
func arrStandalone(dev *dram.Device, n int) seam {
	var s seam
	b := dev.Banks()[0]
	b.Precharge()
	for k := 0; k < n; k++ {
		t0 := time.Now()
		if _, err := b.AdjacentRowRefresh(5000, clock.Time(k)); err != nil {
			break
		}
		s.add(t0)
	}
	return s
}

package mc

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/clock"
	"repro/internal/defense"
	"repro/internal/dram"
)

// stepPump drives one controller's event loop from a fixed pool of recycled
// requests; TestStepSteadyStateAllocFree and BenchmarkSchedulerStep share it.
// Each pump call enqueues up to burst requests from the pool, then advances
// the controller eight events. A request returns to the pool through the
// release hook right after its Done, so the pool size caps the requests in
// flight. Addresses are uniform over the ranks, banks and columns and over
// rows 0..rows-1 of each bank, a small row set that mixes row hits, misses
// and conflicts.
type stepPump struct {
	sys    *System
	rng    *rand.Rand
	free   []*Request
	now    clock.Time
	burst  int  // requests enqueued per pump call, at most
	rows   int  // rows addressed in each bank
	cores  int  // issuing cores
	writes bool // one request in four is a write
}

// start fills the pool with n requests, installs the release hook and pumps
// warmup times so every queue, index and scratch buffer reaches steady state.
func (p *stepPump) start(n, warmup int) {
	p.sys.SetRelease(func(q *Request) { p.free = append(p.free, q) })
	for i := 0; i < n; i++ {
		p.free = append(p.free, &Request{})
	}
	for i := 0; i < warmup; i++ {
		p.pump()
	}
}

func (p *stepPump) pump() {
	d := &p.sys.cfg.DRAM
	for k := 0; k < p.burst && len(p.free) > 0; k++ {
		q := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		*q = Request{
			ID: p.sys.NewID(),
			Addr: dram.Addr{
				Rank: p.rng.Intn(d.RanksPerChannel),
				Bank: p.rng.Intn(d.BanksPerRank),
				Row:  p.rng.Intn(p.rows),
				Col:  p.rng.Intn(d.ColumnsPerRow),
			},
			Write: p.writes && p.rng.Intn(4) == 0,
			Core:  p.rng.Intn(p.cores),
		}
		if !p.sys.Enqueue(q, p.now) {
			p.free = append(p.free, q)
			break
		}
	}
	for i := 0; i < 8; i++ {
		p.now = p.sys.NextEvent()
		p.sys.Advance(p.now)
	}
}

// BenchmarkSchedulerStep times the scheduler on its own: one controller
// whose read queue is held at a fixed depth, so every step selects among
// about that many candidates. The pool holds depth reads and each pump tops
// it up. ns/step and allocs/step are averages over the steps System.Steps
// counts in the timed region.
func BenchmarkSchedulerStep(b *testing.B) {
	for _, depth := range []int{8, 32, 64} {
		b.Run(fmt.Sprintf("q=%d", depth), func(b *testing.B) {
			p := dram.DDR4_2400()
			p.Channels, p.RanksPerChannel, p.BanksPerRank, p.RowsPerBank = 1, 2, 8, 1<<10
			cfg := NewConfig(p)
			cfg.QueueDepth = depth
			pp := &stepPump{sys: newRig(b, cfg, defense.Nop{}).sys, rng: rand.New(rand.NewSource(7)), burst: depth, rows: 16, cores: 4}
			pp.start(depth, 500)
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			mallocs, steps := ms.Mallocs, pp.sys.Steps()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pp.pump()
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			n := float64(pp.sys.Steps() - steps)
			if n == 0 {
				b.Fatal("no scheduler steps in the timed region")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/step")
			b.ReportMetric(float64(ms.Mallocs-mallocs)/n, "allocs/step")
		})
	}
}

// Command cbtdbg drives the CBT baseline directly with the S2 adversarial
// pattern — once at the full paper parameters (64 ms window, threshold 32K)
// and once at the quick scale — reporting refresh overheads, splits, and
// tree occupancy. It is the fast way to inspect counter-tree dynamics
// without the full memory-system simulation.
package main

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/defense/cbt"
	"repro/internal/dram"
	"repro/internal/mc"
	"repro/internal/workload"
)

func main() {
	run(64, 32768) // paper scale
	run(1, 512)    // quick scale (1 ms window)
}

func run(windowMS int, threshold int) {
	p := dram.DDR4_2400()
	p.Channels, p.RanksPerChannel, p.BanksPerRank, p.BankGroups = 1, 1, 1, 1
	p.TREFW = clock.Millisecond * clock.Time(windowMS)
	cfg := cbt.NewConfig(p)
	cfg.Threshold = threshold
	c, err := cbt.New(cfg)
	if err != nil {
		panic(err)
	}
	amap, err := mc.NewAddrMap(p)
	if err != nil {
		panic(err)
	}
	w := workload.S2(amap, p, cfg.Threshold)
	g := w.Gens[0]
	bank := dram.BankID{}
	acts, extra, det := 0, 0, 0
	total := 6_000_000
	if windowMS == 1 {
		total = 200_000
	}
	for i := 0; i < total; i++ {
		addr := amap.Decompose(g.Next().Addr)
		a := c.OnActivate(bank, addr.Row, 0)
		acts++
		extra += len(a.LogicalVictims)
		if a.Detected {
			det++
		}
		if acts%165 == 0 {
			c.OnRefreshTick(bank, 0)
		}
	}
	sp, mg, rr, _ := c.Stats()
	fmt.Printf("S2 vs CBT-%d: acts=%d extra=%d det=%d ratio=%.3f%% splits=%d merges=%d rangeRefreshes=%d leaves=%d\n",
		cfg.Counters, acts, extra, det, 100*float64(extra)/float64(acts), sp, mg, rr, c.Leaves(bank))
}

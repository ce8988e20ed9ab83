package sim

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/workload"
)

// benchConfig builds a small quick-scale machine for the hot-path
// benchmarks: 1 ms refresh window, scaled thresholds, defaults elsewhere.
func benchConfig(cores int) Config {
	cfg := DefaultConfig(cores)
	cfg.DRAM.TREFW = clock.Millisecond
	cfg.DRAM.NTh = 2048
	cfg.MC = mc.NewConfig(cfg.DRAM)
	return cfg
}

func benchDefense(tb testing.TB, cfg Config) *core.TWiCe {
	tb.Helper()
	ccfg := core.NewConfig(cfg.DRAM)
	ccfg.ThRH = 512
	tw, err := core.New(ccfg)
	if err != nil {
		tb.Fatal(err)
	}
	return tw
}

// BenchmarkSimRunAllocs measures the single-run hot path end to end — the
// event loop, the controller's per-step scans, and the request submit path —
// with allocation reporting. The end-to-end trend lives in benchrec
// (BENCHMARK.json); these benchmarks are the micro view of the same path,
// and TestReusedRunAllocCeiling gates the allocation count of the reused
// variant below.
func BenchmarkSimRunAllocs(b *testing.B) {
	const requests = 20000
	cfg := benchConfig(1)
	amap, err := mc.NewAddrMap(cfg.DRAM)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var served int64
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, benchDefense(b, cfg), workload.S3(amap, cfg.DRAM, 5000),
			Limits{MaxRequests: requests, MaxTime: 10 * clock.Second})
		if err != nil {
			b.Fatal(err)
		}
		served = res.Counters.RequestsServed
	}
	b.ReportMetric(float64(served), "requests/op")
}

// BenchmarkSimRunReusedAllocs measures the grid-cell hot path: the same S3
// run as BenchmarkSimRunAllocs, but through a CellRunner that recycles one
// machine across ops the way the experiment grids recycle one machine per
// worker. The delta against BenchmarkSimRunAllocs is the per-cell cost of
// machine construction (device disturb arrays, caches, controller queues)
// that reuse eliminates.
func BenchmarkSimRunReusedAllocs(b *testing.B) {
	run := reusedS3Run(b)
	b.ReportAllocs()
	b.ResetTimer()
	var served int64
	for i := 0; i < b.N; i++ {
		served = run()
	}
	b.ReportMetric(float64(served), "requests/op")
}

// reusedS3Run returns the BenchmarkSimRunReusedAllocs body: one 20k-request
// S3 run with a fresh TWiCe on a CellRunner whose machine is already built,
// returning the requests served.
func reusedS3Run(tb testing.TB) func() int64 {
	cfg := benchConfig(1)
	amap, err := mc.NewAddrMap(cfg.DRAM)
	if err != nil {
		tb.Fatal(err)
	}
	runner := NewCellRunner(cfg)
	run := func(requests int64) int64 {
		res, err := runner.Run(benchDefense(tb, cfg), workload.S3(amap, cfg.DRAM, 5000),
			Limits{MaxRequests: requests, MaxTime: 10 * clock.Second})
		if err != nil {
			tb.Fatal(err)
		}
		return res.Counters.RequestsServed
	}
	run(100) // pay for machine construction up front
	return func() int64 { return run(20000) }
}

// reusedRunAllocCeiling caps the allocations of one reusedS3Run call. The
// count does not depend on timing: it was 1,183 with Go 1.24 when the
// ceiling was set, about 5% below it. A change that allocates once per
// request or per scheduler step exceeds it by thousands.
const reusedRunAllocCeiling = 1240

// TestReusedRunAllocCeiling gates the grid-cell hot path's allocation count,
// the figure BenchmarkSimRunReusedAllocs reports as allocs/op.
func TestReusedRunAllocCeiling(t *testing.T) {
	run := reusedS3Run(t)
	if got := testing.AllocsPerRun(3, func() { run() }); got > reusedRunAllocCeiling {
		t.Errorf("reused S3 run allocates %.0f times, ceiling %d", got, reusedRunAllocCeiling)
	}
}

// BenchmarkSimRunCachedAllocs exercises the cache-fronted path (mix-blend
// through the full hierarchy), where demand fills, prefetches, and
// writebacks all cross the submit path.
func BenchmarkSimRunCachedAllocs(b *testing.B) {
	const requests = 20000
	cfg := benchConfig(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := workload.MixBlend(2, uint64(cfg.DRAM.TotalCapacityBytes()), 1)
		if _, err := Run(cfg, benchDefense(b, cfg), w,
			Limits{MaxRequests: requests, MaxTime: 10 * clock.Second}); err != nil {
			b.Fatal(err)
		}
	}
}

package dram

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/clock"
)

// denseBank is the reference model for the differential test: the eager
// per-row device semantics written out literally — every auto-refresh zeroes
// each row of its sweep, every reset zeroes every row.
type denseBank struct {
	id      BankID
	p       *Params
	remap   *RemapTable
	disturb []int32
	flipped []bool
	hwm     int32
	ptr     int
	open    int
	flips   []Flip
	stats   BankStats
}

func newDenseBank(id BankID, p *Params, remap *RemapTable) *denseBank {
	n := remap.PhysicalRows()
	return &denseBank{id: id, p: p, remap: remap, disturb: make([]int32, n), flipped: make([]bool, n), open: -1}
}

func (d *denseBank) hammer(phys int, now clock.Time) {
	d.disturb[phys] = 0
	d.flipped[phys] = false
	for n := phys - d.p.BlastRadius; n <= phys+d.p.BlastRadius; n++ {
		if n == phys || n < 0 || n >= len(d.disturb) {
			continue
		}
		d.disturb[n]++
		if d.disturb[n] > d.hwm {
			d.hwm = d.disturb[n]
		}
		if int(d.disturb[n]) > d.p.NTh && !d.flipped[n] {
			d.flipped[n] = true
			d.stats.Flips++
			d.flips = append(d.flips, Flip{Bank: d.id, PhysRow: n, Logical: d.remap.Logical(n), Time: now, Disturb: int(d.disturb[n])})
		}
	}
}

func (d *denseBank) activate(row int, now clock.Time) bool {
	if row < 0 || row >= d.p.RowsPerBank || d.open >= 0 {
		return false
	}
	d.open = row
	d.stats.ACTs++
	d.hammer(d.remap.Physical(row), now)
	return true
}

func (d *denseBank) autoRefresh() bool {
	if d.open >= 0 {
		return false
	}
	count := d.p.RowsPerRefresh()
	for i := 0; i < count; i++ {
		d.disturb[d.ptr] = 0
		d.flipped[d.ptr] = false
		d.ptr = (d.ptr + 1) % len(d.disturb)
	}
	d.stats.AutoRefreshes++
	d.stats.RowsRefreshed += int64(count)
	return true
}

func (d *denseBank) arr(row int, now clock.Time) (int, bool) {
	if row < 0 || row >= d.p.RowsPerBank || d.open >= 0 {
		return 0, false
	}
	phys := d.remap.Physical(row)
	count := 0
	for n := phys - d.p.BlastRadius; n <= phys+d.p.BlastRadius; n++ {
		if n == phys || n < 0 || n >= len(d.disturb) {
			continue
		}
		d.hammer(n, now)
		count++
	}
	d.stats.VictimACTs += int64(count)
	return count, true
}

func (d *denseBank) refreshLogical(row int, now clock.Time) (int, bool) {
	if d.open >= 0 {
		return 0, false
	}
	count := 0
	for l := row - d.p.BlastRadius; l <= row+d.p.BlastRadius; l++ {
		if l == row || l < 0 || l >= d.p.RowsPerBank {
			continue
		}
		d.hammer(d.remap.Physical(l), now)
		count++
	}
	d.stats.VictimACTs += int64(count)
	return count, true
}

func (d *denseBank) reset() {
	*d = *newDenseBank(d.id, d.p, d.remap)
}

// compareBank checks every observable of the device bank against the
// reference (the newest flip only); rows additionally compares every flip
// record and each row's disturbance count.
func compareBank(t *testing.T, step int, b *Bank, d *denseBank, rows bool) {
	t.Helper()
	if b.Stats() != d.stats {
		t.Fatalf("step %d bank %v: Stats %+v, reference %+v", step, b.ID(), b.Stats(), d.stats)
	}
	if b.DisturbHighWater() != int(d.hwm) {
		t.Fatalf("step %d bank %v: DisturbHighWater %d, reference %d", step, b.ID(), b.DisturbHighWater(), d.hwm)
	}
	if b.OpenRow() != d.open {
		t.Fatalf("step %d bank %v: OpenRow %d, reference %d", step, b.ID(), b.OpenRow(), d.open)
	}
	got := b.Flips()
	if len(got) != len(d.flips) || (len(got) > 0 && got[len(got)-1] != d.flips[len(got)-1]) {
		t.Fatalf("step %d bank %v: %d flips, reference %d", step, b.ID(), len(got), len(d.flips))
	}
	if !rows {
		return
	}
	if !reflect.DeepEqual(got, d.flips) && len(got) > 0 {
		t.Fatalf("step %d bank %v: flips %+v, reference %+v", step, b.ID(), got, d.flips)
	}
	for r := range d.disturb {
		if got := b.Disturbance(r); got != int(d.disturb[r]) {
			t.Fatalf("step %d bank %v: Disturbance(%d) = %d, reference %d", step, b.ID(), r, got, d.disturb[r])
		}
	}
}

// TestBankDifferentialVsDenseReference drives a device and the dense
// reference model through one randomized command stream — ACT/PRE, REF,
// ARR, remapping-oblivious neighbour refresh and mid-stream device resets —
// and requires identical flips, stats, high-water marks and per-row
// disturbance counts. NTh is tiny so flips (and flipped-row bookkeeping)
// are constant. Both geometries have RowsPerRefresh × RefreshTicksPerWindow
// ≠ PhysicalRows, so refresh sweeps start and end inside 64-row blocks and
// wrap at the end of the physical row space mid-sweep.
func TestBankDifferentialVsDenseReference(t *testing.T) {
	small := smallParams()
	small.RowsPerBank = 200
	small.SpareRowsPerBank = 13 // 213 physical rows: a partial last block
	small.TREFW = 8 * small.TREFI
	small.NTh = 6
	small.BlastRadius = 2

	// 4,097 physical rows: the last block is one row long and is the
	// first block of a second bitmap word.
	edge := small
	edge.RowsPerBank = 4000
	edge.SpareRowsPerBank = 97
	edge.TREFW = 16 * edge.TREFI

	ddr4 := DDR4_2400() // 132,096 rows, 17 rows per REF × 8192 REFs = 139,264
	ddr4.Channels, ddr4.RanksPerChannel, ddr4.BanksPerRank, ddr4.BankGroups = 1, 1, 1, 1
	ddr4.NTh = 4

	cases := []struct {
		name      string
		p         Params
		steps     int
		rowsEvery int // compare every row's disturbance this often
		resetOdds int // per-mille chance of a device reset each step
	}{
		{"small", small, 40000, 1, 2},
		{"edge", edge, 30000, 50, 1},
		// One bank and one reset three quarters in, so the sweep pointer
		// wraps the 132,096-row space (7,771 REFs) before the reset.
		{"ddr4", ddr4, 60000, 5000, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			n := p.RowsPerBank + p.SpareRowsPerBank
			if p.RowsPerRefresh()*p.RefreshTicksPerWindow() == n {
				t.Fatalf("geometry does not exercise mid-block sweeps: %d rows, %d per REF", n, p.RowsPerRefresh())
			}
			dev, err := NewDevice(p, rand.New(rand.NewSource(11)))
			if err != nil {
				t.Fatal(err)
			}
			refs := make([]*denseBank, len(dev.Banks()))
			for i, b := range dev.Banks() {
				refs[i] = newDenseBank(b.ID(), &p, b.Remap())
			}
			rng := rand.New(rand.NewSource(5))
			// Hot rows concentrate ACTs so counters cross NTh; the
			// stretch near the top of the logical space puts disturbance
			// next to the spare region and the sweep's wrap point.
			hot := []int{0, 1, 63, 64, 65, 127, p.RowsPerBank / 2, p.RowsPerBank - 2, p.RowsPerBank - 1}
			pick := func() int {
				if rng.Intn(3) == 0 {
					return hot[rng.Intn(len(hot))]
				}
				return rng.Intn(p.RowsPerBank)
			}
			var flips, resets int64
			wrapped := false
			settle := func() {
				for _, d := range refs {
					flips += d.stats.Flips
					wrapped = wrapped || d.stats.RowsRefreshed > int64(n)
				}
			}
			for step := 0; step < tc.steps; step++ {
				i := rng.Intn(len(refs))
				b, d := dev.Banks()[i], refs[i]
				now := clock.Time(step)
				op := rng.Intn(999)
				if op < tc.resetOdds || step == tc.steps*3/4 {
					op = 999
				}
				switch {
				case op < 450:
					row := pick()
					if (b.Activate(row, now) == nil) != d.activate(row, now) {
						t.Fatalf("step %d: Activate(%d) error mismatch", step, row)
					}
					if rng.Intn(8) != 0 {
						b.Precharge()
						d.open = -1
					}
				case op < 500:
					b.Precharge()
					d.open = -1
				case op < 850:
					if (b.AutoRefresh(now) == nil) != d.autoRefresh() {
						t.Fatalf("step %d: AutoRefresh error mismatch", step)
					}
				case op < 920:
					row := pick()
					got, err := b.AdjacentRowRefresh(row, now)
					want, ok := d.arr(row, now)
					if (err == nil) != ok || got != want {
						t.Fatalf("step %d: ARR(%d) = %d,%v, reference %d,%v", step, row, got, err, want, ok)
					}
				case op < 999:
					row := pick()
					got, err := b.RefreshLogicalNeighbors(row, now)
					want, ok := d.refreshLogical(row, now)
					if (err == nil) != ok || got != want {
						t.Fatalf("step %d: RefreshLogicalNeighbors(%d) = %d,%v, reference %d,%v", step, row, got, err, want, ok)
					}
				default:
					settle()
					for _, d := range refs {
						d.reset()
					}
					dev.Reset()
					resets++
					for j, b := range dev.Banks() {
						compareBank(t, step, b, refs[j], true)
					}
					continue
				}
				compareBank(t, step, b, d, step%tc.rowsEvery == 0)
			}
			settle()
			for j, b := range dev.Banks() {
				compareBank(t, tc.steps, b, refs[j], true)
			}
			if flips == 0 || resets == 0 || !wrapped {
				t.Fatalf("stream too tame: %d flips, %d resets, wrapped %v", flips, resets, wrapped)
			}
		})
	}
}

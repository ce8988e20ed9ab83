package dram

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/clock"
)

// Flip records a simulated row-hammer bit flip: a physical row whose
// disturbance counter exceeded Nth before the row was refreshed.
type Flip struct {
	Bank    BankID
	PhysRow int
	Logical int // -1 if the physical row holds no logical row
	Time    clock.Time
	Disturb int // disturbance count at the moment of the flip
}

// BankStats aggregates per-bank activity counters.
type BankStats struct {
	ACTs          int64 // row activations from normal traffic
	VictimACTs    int64 // activations performed to refresh potential victims
	AutoRefreshes int64 // auto-refresh commands processed
	RowsRefreshed int64 // rows covered by auto-refresh
	Flips         int64 // row-hammer flips observed
}

// blockShift sets the dirty-tracking granularity: one dirty bit covers
// 1<<blockShift consecutive physical rows.
const blockShift = 6

// Bank models a single DRAM bank: its physical rows (including spares), the
// remap table burned in at test time, the rolling auto-refresh pointer, and
// per-row disturbance state.
//
// Refresh and reset cost what is live: the dense per-row arrays are only
// ever written where hammer has disturbed a row, and the dirty bitmap
// records which 64-row blocks those are. A clean block holds only zero
// counters and clear flip marks, so the auto-refresh sweep and Reset skip
// it without touching its memory.
type Bank struct {
	id    BankID      //twicelint:keep identity, fixed at construction
	p     *Params     //twicelint:keep device parameters, fixed at construction
	remap *RemapTable //twicelint:keep fuse data survives power cycles; RemapTable has no reset

	// disturb[phys] counts neighbour ACTs since the row's last refresh or
	// own activation.
	disturb []int32
	// flipped[phys] marks rows that have already recorded a flip in the
	// current vulnerability epoch, so one over-threshold row produces one
	// flip record rather than one per subsequent ACT.
	flipped []bool
	// dirty has bit k set when block k (physical rows k<<blockShift up to
	// the next block) may hold a non-zero disturb or a set flipped entry.
	// hammer sets it; a refresh sweep clears it only after zeroing the
	// whole block.
	dirty []uint64
	// hwm is the highest disturbance count any row of the bank has reached —
	// the per-bank high-water mark the telemetry layer samples. Maintained
	// inline in hammer (one compare per disturbed neighbour).
	hwm int32

	refreshPtr int // next physical row to be auto-refreshed
	openRow    int // currently open logical row, or -1

	flips []Flip
	stats BankStats
}

// NewBank constructs a bank with the given remap table. A nil remap table
// yields an identity mapping.
func NewBank(id BankID, p *Params, remap *RemapTable) *Bank {
	if remap == nil {
		remap = NewRemapTable(p.RowsPerBank, p.SpareRowsPerBank)
	}
	n := remap.PhysicalRows()
	blocks := (n + 1<<blockShift - 1) >> blockShift
	return &Bank{
		id:      id,
		p:       p,
		remap:   remap,
		disturb: make([]int32, n),
		flipped: make([]bool, n),
		dirty:   make([]uint64, (blocks+63)/64),
		openRow: -1,
	}
}

// ID returns the bank coordinate.
func (b *Bank) ID() BankID { return b.id }

// Remap exposes the bank's remap table (the device-internal fuse data).
func (b *Bank) Remap() *RemapTable { return b.remap }

// OpenRow returns the logical row currently open in the bank, or -1.
func (b *Bank) OpenRow() int { return b.openRow }

// Stats returns a copy of the bank's activity counters.
func (b *Bank) Stats() BankStats { return b.stats }

// Flips returns the recorded row-hammer flips.
func (b *Bank) Flips() []Flip { return b.flips }

// Activate opens the given logical row, disturbing its physical neighbours.
// It is the caller's (memory controller's) job to respect timing; the device
// model only tracks reliability state.
//
//twicelint:hotpath per-ACT device kernel; every simulated activation runs it
func (b *Bank) Activate(logicalRow int, now clock.Time) error {
	if logicalRow < 0 || logicalRow >= b.p.RowsPerBank {
		//twicelint:allocok cold error path: protocol violation, not steady state
		return fmt.Errorf("dram: activate out-of-range row %d in %v", logicalRow, b.id)
	}
	if b.openRow >= 0 {
		//twicelint:allocok cold error path: protocol violation, not steady state
		return fmt.Errorf("dram: activate row %d while row %d open in %v", logicalRow, b.openRow, b.id)
	}
	b.openRow = logicalRow
	b.stats.ACTs++
	b.hammer(b.remap.Physical(logicalRow), now)
	return nil
}

// hammer applies the disturbance of one activation of the given physical row
// to its neighbours and rejuvenates the activated row itself (an activation
// fully restores the row's own charge). This is the innermost operation of
// every experiment, so the neighbour range is iterated inline — same
// ascending order as RemapTable.PhysicalNeighbors, but with zero allocation.
//
//twicelint:hotpath disturbance accounting runs on every ACT and ARR
func (b *Bank) hammer(phys int, now clock.Time) {
	b.disturb[phys] = 0
	b.flipped[phys] = false
	lo := phys - b.p.BlastRadius
	if lo < 0 {
		lo = 0
	}
	hi := phys + b.p.BlastRadius
	if last := len(b.disturb) - 1; hi > last {
		hi = last
	}
	for n := lo; n <= hi; n++ {
		if n == phys {
			continue
		}
		b.disturb[n]++
		b.dirty[n>>(blockShift+6)] |= 1 << (uint(n>>blockShift) & 63)
		if b.disturb[n] > b.hwm {
			b.hwm = b.disturb[n]
		}
		if int(b.disturb[n]) > b.p.NTh && !b.flipped[n] {
			b.flipped[n] = true
			b.stats.Flips++
			//twicelint:allocok flip records are rare events (each physical row flips at most once)
			b.flips = append(b.flips, Flip{
				Bank:    b.id,
				PhysRow: n,
				Logical: b.remap.Logical(n),
				Time:    now,
				Disturb: int(b.disturb[n]),
			})
		}
	}
}

// Precharge closes the open row. Precharging an already-idle bank is legal
// (PREA behaviour) and is a no-op.
func (b *Bank) Precharge() {
	b.openRow = -1
}

// AutoRefresh processes one auto-refresh command: the next RowsPerRefresh
// physical rows (in rolling order) have their charge restored, clearing
// their disturbance counters. The caller must have precharged the bank.
// Only dirty blocks of the sweep are written.
//
//twicelint:hotpath runs once per bank every tREFI across the whole run
func (b *Bank) AutoRefresh(now clock.Time) error {
	if b.openRow >= 0 {
		//twicelint:allocok cold error path: protocol violation, not steady state
		return fmt.Errorf("dram: auto-refresh with row %d open in %v", b.openRow, b.id)
	}
	n := len(b.disturb)
	count := b.p.RowsPerRefresh()
	end := b.refreshPtr + count
	if end >= n {
		// The sweep reaches the end of the physical row space and wraps
		// (count ≤ n, so it wraps at most once).
		b.refreshRange(b.refreshPtr, n)
		end -= n
		b.refreshRange(0, end)
	} else {
		b.refreshRange(b.refreshPtr, end)
	}
	b.refreshPtr = end
	b.stats.AutoRefreshes++
	b.stats.RowsRefreshed += int64(count)
	_ = now
	return nil
}

// refreshRange restores physical rows [lo, hi), visiting only dirty blocks
// and skipping whole clean bitmap words. A block's dirty bit is dropped
// only when the range covered the entire block; a partly refreshed block
// stays dirty because its rows outside the range may still be disturbed.
func (b *Bank) refreshRange(lo, hi int) {
	n := len(b.disturb)
	for k := lo >> blockShift; k<<blockShift < hi; k++ {
		w := b.dirty[k>>6]
		if w == 0 {
			k |= 63 // the rest of this word's blocks are clean
			continue
		}
		bit := uint64(1) << (uint(k) & 63)
		if w&bit == 0 {
			continue
		}
		bs, be := k<<blockShift, min((k+1)<<blockShift, n)
		l, h := max(lo, bs), min(hi, be)
		clear(b.disturb[l:h])
		clear(b.flipped[l:h])
		if l == bs && h == be {
			b.dirty[k>>6] = w &^ bit
		}
	}
}

// AdjacentRowRefresh implements the ARR command: the device resolves the
// aggressor's physical location through its remap table and refreshes the
// physically adjacent rows. It returns the number of rows refreshed (up to
// 2×BlastRadius), each of which costs the device one internal ACT/PRE pair.
func (b *Bank) AdjacentRowRefresh(aggressorLogical int, now clock.Time) (int, error) {
	if aggressorLogical < 0 || aggressorLogical >= b.p.RowsPerBank {
		//twicelint:allocok cold error path: protocol violation, not steady state
		return 0, fmt.Errorf("dram: ARR for out-of-range row %d in %v", aggressorLogical, b.id)
	}
	if b.openRow >= 0 {
		//twicelint:allocok cold error path: protocol violation, not steady state
		return 0, fmt.Errorf("dram: ARR with row %d open in %v", b.openRow, b.id)
	}
	phys := b.remap.Physical(aggressorLogical)
	lo := phys - b.p.BlastRadius
	if lo < 0 {
		lo = 0
	}
	hi := phys + b.p.BlastRadius
	if last := b.remap.PhysicalRows() - 1; hi > last {
		hi = last
	}
	count := 0
	for n := lo; n <= hi; n++ {
		if n == phys {
			continue
		}
		// Refreshing a victim is an internal activation: it restores the
		// victim's charge but also disturbs the victim's own neighbours.
		b.hammer(n, now)
		count++
	}
	b.stats.VictimACTs += int64(count)
	return count, nil
}

// RefreshLogicalNeighbors models what a remapping-oblivious controller would
// do: refresh the rows at logical indices aggressor±1..radius. If the
// aggressor (or a neighbour) is remapped, the refreshed physical rows are not
// the true victims. Returns the number of rows refreshed. Used to demonstrate
// why ARR must live in the device.
func (b *Bank) RefreshLogicalNeighbors(aggressorLogical int, now clock.Time) (int, error) {
	if b.openRow >= 0 {
		return 0, fmt.Errorf("dram: refresh with row %d open in %v", b.openRow, b.id)
	}
	count := 0
	for d := -b.p.BlastRadius; d <= b.p.BlastRadius; d++ {
		if d == 0 {
			continue
		}
		l := aggressorLogical + d
		if l < 0 || l >= b.p.RowsPerBank {
			continue
		}
		b.hammer(b.remap.Physical(l), now)
		count++
	}
	b.stats.VictimACTs += int64(count)
	return count, nil
}

// Disturbance returns the disturbance count of a physical row (test hook).
func (b *Bank) Disturbance(phys int) int { return int(b.disturb[phys]) }

// DisturbHighWater returns the highest disturbance count any row of the bank
// has ever reached (refreshes clear counters but not the high-water mark).
func (b *Bank) DisturbHighWater() int { return int(b.hwm) }

// Reset restores the bank to its just-constructed state while keeping its
// storage and remap table: disturbance counters and flip marks cleared, the
// refresh pointer rewound, recorded flips dropped (the backing array is
// reused), and the activity counters zeroed. The remap table is fuse data —
// it survives, which is what makes a reset bank byte-identical to a fresh
// bank built from the same generation sequence. Only dirty blocks are
// zeroed, so a reset costs what the previous run disturbed, and pages of
// the dense arrays that were never touched stay untouched.
func (b *Bank) Reset() {
	n := len(b.disturb)
	for i, w := range b.dirty {
		if w == 0 {
			continue
		}
		for ; w != 0; w &= w - 1 {
			k := i<<6 + bits.TrailingZeros64(w)
			bs, be := k<<blockShift, min((k+1)<<blockShift, n)
			clear(b.disturb[bs:be])
			clear(b.flipped[bs:be])
		}
		b.dirty[i] = 0
	}
	b.refreshPtr = 0
	b.openRow = -1
	b.flips = b.flips[:0]
	b.stats = BankStats{}
	b.hwm = 0
}

// Device models a full multi-channel DRAM population: one Bank per
// (channel, rank, bank) coordinate, each with its own remap table.
type Device struct {
	p     Params //twicelint:keep device parameters, fixed at construction
	banks []*Bank
}

// NewDevice builds the device population. If rng is non-nil, each bank gets
// a generated remap table (sampled at p.SCFRate); with a nil rng all banks
// use identity mappings.
func NewDevice(p Params, rng *rand.Rand) (*Device, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	d := &Device{p: p, banks: make([]*Bank, p.TotalBanks())}
	for ch := 0; ch < p.Channels; ch++ {
		for rk := 0; rk < p.RanksPerChannel; rk++ {
			for ba := 0; ba < p.BanksPerRank; ba++ {
				id := BankID{ch, rk, ba}
				var remap *RemapTable
				if rng != nil {
					remap = GenerateRemapTable(p, rng)
				}
				d.banks[id.Flat(&p)] = NewBank(id, &d.p, remap)
			}
		}
	}
	return d, nil
}

// Params returns the device parameters.
func (d *Device) Params() Params { return d.p }

// Bank returns the bank at the given coordinate.
func (d *Device) Bank(id BankID) *Bank { return d.banks[id.Flat(&d.p)] }

// Reset restores every bank to its just-constructed state (see Bank.Reset),
// reusing all storage — the machine-recycling path of the experiment grids.
func (d *Device) Reset() {
	for _, b := range d.banks {
		b.Reset()
	}
}

// Banks returns all banks in flat order.
func (d *Device) Banks() []*Bank { return d.banks }

// TotalFlips sums observed row-hammer flips across all banks.
func (d *Device) TotalFlips() int64 {
	var n int64
	for _, b := range d.banks {
		n += b.stats.Flips
	}
	return n
}

// TotalStats sums per-bank statistics across the device.
func (d *Device) TotalStats() BankStats {
	var s BankStats
	for _, b := range d.banks {
		s.ACTs += b.stats.ACTs
		s.VictimACTs += b.stats.VictimACTs
		s.AutoRefreshes += b.stats.AutoRefreshes
		s.RowsRefreshed += b.stats.RowsRefreshed
		s.Flips += b.stats.Flips
	}
	return s
}

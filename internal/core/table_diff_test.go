package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refModel is the reference counting model the differential test pits each
// organization against: a plain builtin map applying the TWiCe rules
// literally. Organizations may reject an Insert the model would accept (the
// separated table's sub-table split), so the model mirrors the table's
// accept/reject decisions and only the accepted state is compared.
type refModel map[int]Entry

func (m refModel) touch(row int) (Entry, bool) {
	e, ok := m[row]
	if !ok {
		return Entry{}, false
	}
	e.ActCnt++
	m[row] = e
	return e, true
}

func (m refModel) prune(thPI int) int {
	pruned := 0
	rows := make([]int, 0, len(m))
	for r := range m {
		rows = append(rows, r)
	}
	sort.Ints(rows)
	for _, r := range rows {
		e := m[r]
		if e.ActCnt < thPI*e.Life {
			delete(m, r)
			pruned++
		} else {
			e.Life++
			m[r] = e
		}
	}
	return pruned
}

func sortedSnapshot(tb Table) []Entry {
	s := tb.Snapshot()
	sort.Slice(s, func(i, j int) bool { return s[i].Row < s[j].Row })
	return s
}

func (m refModel) sorted() []Entry {
	out := make([]Entry, 0, len(m))
	for _, e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Row < out[j].Row })
	return out
}

func entriesEqual(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// tableFactories builds each organization against the same stream. fa and pa
// are sized below the row domain so the stream regularly runs them full; the
// separated table's wide sub-table must instead cover the whole domain,
// because graduation into a full wide sub-table is a sizing-theorem violation
// that (correctly) panics — its narrow sub-table still stays small enough
// that the spill path is exercised constantly.
func tableFactories() map[string]func() Table {
	return map[string]func() Table{
		"fa":  func() Table { return newFATable(48) },
		"pa":  func() Table { return newPATable(48, 8) },
		"sep": func() Table { return newSepTable(16, 96, 4) },
	}
}

// TestTableDifferentialVsMapReference drives every organization through a
// long randomized ACT/prune/remove stream — including stretches that hold
// the table near full — and checks each observable against the map-based
// reference model, step by step. This is the behavioural backstop for the
// open-addressed index swap: any divergence between intMap and a builtin map
// surfaces here as a counting difference.
func TestTableDifferentialVsMapReference(t *testing.T) {
	names := []string{"fa", "pa", "sep"}
	for _, name := range names {
		factory := tableFactories()[name]
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(97))
			tb := factory()
			ref := refModel{}
			const domain = 96 // < 2×cap so collisions and full tables are common
			for step := 0; step < 60000; step++ {
				row := rng.Intn(domain)
				switch op := rng.Intn(100); {
				case op < 65: // an ACT: touch, insert on miss (TWiCe's usage)
					e, ok := tb.Touch(row)
					re, rok := ref.touch(row)
					if ok != rok {
						t.Fatalf("step %d: Touch(%d) hit=%v, reference %v", step, row, ok, rok)
					}
					if ok && e != re {
						t.Fatalf("step %d: Touch(%d) = %+v, reference %+v", step, row, e, re)
					}
					if !ok {
						if err := tb.Insert(row); err == nil {
							ref[row] = Entry{Row: row, ActCnt: 1, Life: 1}
						} else if tb.Len() == 0 {
							t.Fatalf("step %d: empty table rejected Insert(%d): %v", step, row, err)
						}
					}
				case op < 75:
					tb.Remove(row)
					delete(ref, row)
				case op < 85:
					e, ok := tb.Lookup(row)
					re, rok := ref[row]
					if ok != rok || (ok && e != re) {
						t.Fatalf("step %d: Lookup(%d) = %+v,%v, reference %+v,%v", step, row, e, ok, re, rok)
					}
				case op < 92:
					thPI := 1 + rng.Intn(4)
					got := tb.Prune(thPI)
					want := ref.prune(thPI)
					if got != want {
						t.Fatalf("step %d: Prune(%d) = %d, reference %d", step, thPI, got, want)
					}
				default:
					if got, want := sortedSnapshot(tb), ref.sorted(); !entriesEqual(got, want) {
						t.Fatalf("step %d: snapshot diverged\n table %+v\n ref   %+v", step, got, want)
					}
				}
				if tb.Len() != len(ref) {
					t.Fatalf("step %d: Len = %d, reference %d", step, tb.Len(), len(ref))
				}
			}

			// Restore/Snapshot round-trip: rebuild a fresh table from the
			// final snapshot and require identical contents, then identical
			// behaviour under a further stream after Clear-based reuse.
			snap := sortedSnapshot(tb)
			rebuilt := factory()
			for _, e := range snap {
				if err := rebuilt.Restore(e); err != nil {
					t.Fatalf("Restore(%+v): %v", e, err)
				}
			}
			if got := sortedSnapshot(rebuilt); !entriesEqual(got, snap) {
				t.Fatalf("restore round-trip diverged\n got  %+v\n want %+v", got, snap)
			}

			// Clear must return the table to fresh-equivalent state: same
			// emptiness, zeroed ops, and the same slot-assignment sequence as
			// a newly built table (checked via a deterministic refill).
			tb.Clear()
			if tb.Len() != 0 {
				t.Fatalf("Len after Clear = %d", tb.Len())
			}
			if tb.Ops() != (OpStats{}) {
				t.Fatalf("Ops after Clear = %+v, want zero", tb.Ops())
			}
			fresh := factory()
			for i := 0; i < 24; i++ {
				if err := tb.Insert(i * 7); err != nil {
					t.Fatal(err)
				}
				if err := fresh.Insert(i * 7); err != nil {
					t.Fatal(err)
				}
			}
			tb.Prune(2)
			fresh.Prune(2)
			if got, want := sortedSnapshot(tb), sortedSnapshot(fresh); !entriesEqual(got, want) {
				t.Fatalf("cleared table diverges from fresh\n cleared %+v\n fresh   %+v", got, want)
			}
			if tb.Ops() != fresh.Ops() {
				t.Fatalf("cleared table ops %+v, fresh %+v", tb.Ops(), fresh.Ops())
			}
		})
	}
}

// TestResetReusesTablesAndDropsOps pins the TWiCe.Reset contract after the
// Clear-based rewrite: table storage is reused (same Table values before and
// after), Ops counters do not survive, and Detections do.
func TestResetReusesTablesAndDropsOps(t *testing.T) {
	for _, org := range []Org{FA, PA, Separated} {
		tw, err := New(testConfig(org))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			tw.OnActivate(bank0(), i%8, 0)
		}
		if tw.Ops().Searches == 0 {
			t.Fatal("stream produced no searches")
		}
		det := tw.Detections()
		before := tw.TableFor(bank0())
		tw.Reset()
		if after := tw.TableFor(bank0()); after != before {
			t.Errorf("%v: Reset reallocated the table", org)
		}
		if tw.TableFor(bank0()).Len() != 0 {
			t.Errorf("%v: Reset left %d entries", org, tw.TableFor(bank0()).Len())
		}
		if ops := tw.Ops(); ops != (OpStats{}) {
			t.Errorf("%v: Ops survived Reset: %+v", org, ops)
		}
		if tw.Detections() != det {
			t.Errorf("%v: Detections changed across Reset: %d -> %d", org, det, tw.Detections())
		}
	}
}

// scanFA is the full-scan fully-associative table the bitmap version
// replaced, kept as an oracle: a dense valid []bool, a materialised
// [cap-1 … 0] free list, and prune/clear/snapshot passes over every slot.
type scanFA struct {
	entries []Entry
	valid   []bool
	free    []int
	index   map[int]int
	ops     OpStats
}

func newScanFA(capacity int) *scanFA {
	t := &scanFA{entries: make([]Entry, capacity), valid: make([]bool, capacity)}
	t.Clear()
	return t
}

func (t *scanFA) Touch(row int) (Entry, bool) {
	t.ops.Searches++
	t.ops.SetsProbed++
	i, ok := t.index[row]
	if !ok {
		return Entry{}, false
	}
	t.entries[i].ActCnt++
	return t.entries[i], true
}

func (t *scanFA) Lookup(row int) (Entry, bool) {
	if i, ok := t.index[row]; ok {
		return t.entries[i], true
	}
	return Entry{}, false
}

func (t *scanFA) Insert(row int) error {
	if _, ok := t.index[row]; ok {
		return fmt.Errorf("tracked")
	}
	if len(t.free) == 0 {
		return fmt.Errorf("full")
	}
	i := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	t.entries[i] = Entry{Row: row, ActCnt: 1, Life: 1}
	t.valid[i] = true
	t.index[row] = i
	t.ops.Inserts++
	t.ops.PeakOccupancy = max(t.ops.PeakOccupancy, len(t.index))
	return nil
}

func (t *scanFA) Restore(e Entry) error {
	if err := t.Insert(e.Row); err != nil {
		return err
	}
	t.entries[t.index[e.Row]] = e
	return nil
}

func (t *scanFA) Remove(row int) {
	i, ok := t.index[row]
	if !ok {
		return
	}
	delete(t.index, row)
	t.valid[i] = false
	t.free = append(t.free, i)
	t.ops.Removes++
}

func (t *scanFA) Prune(thPI int) int {
	pruned := 0
	for i := range t.entries {
		if !t.valid[i] {
			continue
		}
		e := &t.entries[i]
		if e.ActCnt < thPI*e.Life {
			delete(t.index, e.Row)
			t.valid[i] = false
			t.free = append(t.free, i)
			pruned++
		} else {
			e.Life++
		}
	}
	t.ops.Prunes++
	t.ops.EntriesPruned += int64(pruned)
	return pruned
}

func (t *scanFA) Clear() {
	for i := range t.valid {
		t.valid[i] = false
	}
	t.free = t.free[:0]
	for i := len(t.entries) - 1; i >= 0; i-- {
		t.free = append(t.free, i)
	}
	t.index = map[int]int{}
	t.ops = OpStats{}
}

func (t *scanFA) Len() int { return len(t.index) }
func (t *scanFA) Cap() int { return len(t.entries) }

func (t *scanFA) Snapshot() []Entry {
	out := []Entry{}
	for i, v := range t.valid {
		if v {
			out = append(out, t.entries[i])
		}
	}
	return out
}

func (t *scanFA) Ops() OpStats { return t.ops }

// scanPA is the full-scan pseudo-associative table the occupancy-mask
// version replaced, kept as an oracle: Row < 0 marks an empty way and every
// search, insert, prune and clear walks whole sets.
type scanPA struct {
	sets [][]Entry
	sb   [][]int
	len  int
	ops  OpStats
}

func newScanPA(capacity, ways int) *scanPA {
	nsets := max(1, (capacity+ways-1)/ways)
	t := &scanPA{sets: make([][]Entry, nsets), sb: make([][]int, nsets)}
	for s := range t.sets {
		t.sets[s] = make([]Entry, ways)
		t.sb[s] = make([]int, nsets)
	}
	t.Clear()
	return t
}

func (t *scanPA) find(s, row int) int {
	for w := range t.sets[s] {
		if t.sets[s][w].Row == row {
			return w
		}
	}
	return -1
}

func (t *scanPA) locate(row int, counted bool) (int, int) {
	p := row % len(t.sets)
	if counted {
		t.ops.SetsProbed++
	}
	if w := t.find(p, row); w >= 0 {
		if counted {
			t.ops.PreferredHits++
		}
		return p, w
	}
	for s := range t.sets {
		if s == p || t.sb[s][p] == 0 {
			continue
		}
		if counted {
			t.ops.SetsProbed++
		}
		if w := t.find(s, row); w >= 0 {
			return s, w
		}
	}
	return -1, -1
}

func (t *scanPA) Touch(row int) (Entry, bool) {
	t.ops.Searches++
	s, w := t.locate(row, true)
	if s < 0 {
		return Entry{}, false
	}
	t.sets[s][w].ActCnt++
	return t.sets[s][w], true
}

func (t *scanPA) Lookup(row int) (Entry, bool) {
	if s, w := t.locate(row, false); s >= 0 {
		return t.sets[s][w], true
	}
	return Entry{}, false
}

func (t *scanPA) Insert(row int) error {
	if s, _ := t.locate(row, false); s >= 0 {
		return fmt.Errorf("tracked")
	}
	p := row % len(t.sets)
	s, w := p, t.find(p, -1)
	if w < 0 {
		s = -1
		for q := range t.sets {
			if ww := t.find(q, -1); q != p && ww >= 0 {
				s, w = q, ww
				break
			}
		}
		if s < 0 {
			return fmt.Errorf("full")
		}
		t.sb[s][p]++
		t.ops.Spills++
	}
	t.sets[s][w] = Entry{Row: row, ActCnt: 1, Life: 1}
	t.len++
	t.ops.Inserts++
	t.ops.PeakOccupancy = max(t.ops.PeakOccupancy, t.len)
	return nil
}

func (t *scanPA) invalidate(s, w int) {
	if p := t.sets[s][w].Row % len(t.sets); p != s {
		t.sb[s][p]--
	}
	t.sets[s][w].Row = -1
	t.len--
}

func (t *scanPA) Restore(e Entry) error {
	if err := t.Insert(e.Row); err != nil {
		return err
	}
	s, w := t.locate(e.Row, false)
	t.sets[s][w] = e
	return nil
}

func (t *scanPA) Remove(row int) {
	if s, w := t.locate(row, false); s >= 0 {
		t.invalidate(s, w)
		t.ops.Removes++
	}
}

func (t *scanPA) Prune(thPI int) int {
	pruned := 0
	for s := range t.sets {
		for w := range t.sets[s] {
			e := &t.sets[s][w]
			if e.Row < 0 {
				continue
			}
			if e.ActCnt < thPI*e.Life {
				t.invalidate(s, w)
				pruned++
			} else {
				e.Life++
			}
		}
	}
	t.ops.Prunes++
	t.ops.EntriesPruned += int64(pruned)
	return pruned
}

func (t *scanPA) Clear() {
	for s := range t.sets {
		for w := range t.sets[s] {
			t.sets[s][w].Row = -1
		}
		for p := range t.sb[s] {
			t.sb[s][p] = 0
		}
	}
	t.len = 0
	t.ops = OpStats{}
}

func (t *scanPA) Len() int { return t.len }
func (t *scanPA) Cap() int { return len(t.sets) * len(t.sets[0]) }

func (t *scanPA) Snapshot() []Entry {
	out := []Entry{}
	for s := range t.sets {
		for _, e := range t.sets[s] {
			if e.Row >= 0 {
				out = append(out, e)
			}
		}
	}
	return out
}

func (t *scanPA) Ops() OpStats { return t.ops }

// scanSep is sepTable's logic over two scanFA sub-tables.
type scanSep struct {
	narrow, wide *scanFA
	graduate     int
	ops          OpStats
}

func newScanSep(narrowCap, wideCap, graduate int) *scanSep {
	return &scanSep{narrow: newScanFA(narrowCap), wide: newScanFA(wideCap), graduate: graduate}
}

func (t *scanSep) Touch(row int) (Entry, bool) {
	t.ops.Searches++
	t.ops.SetsProbed++
	if e, ok := t.wide.Touch(row); ok {
		return e, true
	}
	e, ok := t.narrow.Touch(row)
	if !ok || e.ActCnt < t.graduate {
		return e, ok
	}
	t.narrow.Remove(row)
	if err := t.wide.Restore(e); err != nil {
		panic(err)
	}
	return e, true
}

func (t *scanSep) Lookup(row int) (Entry, bool) {
	if e, ok := t.wide.Lookup(row); ok {
		return e, true
	}
	return t.narrow.Lookup(row)
}

func (t *scanSep) Insert(row int) error {
	if _, ok := t.Lookup(row); ok {
		return fmt.Errorf("tracked")
	}
	if t.narrow.Len() < t.narrow.Cap() {
		if err := t.narrow.Insert(row); err != nil {
			return err
		}
	} else {
		if err := t.wide.Insert(row); err != nil {
			return err
		}
		t.ops.Spills++
	}
	t.ops.Inserts++
	t.ops.PeakOccupancy = max(t.ops.PeakOccupancy, t.Len())
	return nil
}

func (t *scanSep) Restore(e Entry) error {
	if _, ok := t.Lookup(e.Row); ok {
		return fmt.Errorf("tracked")
	}
	if e.ActCnt >= t.graduate {
		if err := t.wide.Restore(e); err != nil {
			return err
		}
	} else if err := t.narrow.Restore(e); err != nil {
		if werr := t.wide.Restore(e); werr != nil {
			return werr
		}
	}
	t.ops.Inserts++
	t.ops.PeakOccupancy = max(t.ops.PeakOccupancy, t.Len())
	return nil
}

func (t *scanSep) Remove(row int) {
	before := t.Len()
	t.narrow.Remove(row)
	t.wide.Remove(row)
	if t.Len() != before {
		t.ops.Removes++
	}
}

func (t *scanSep) Prune(thPI int) int {
	pruned := t.narrow.Prune(thPI) + t.wide.Prune(thPI)
	t.ops.Prunes++
	t.ops.EntriesPruned += int64(pruned)
	return pruned
}

func (t *scanSep) Clear() {
	t.narrow.Clear()
	t.wide.Clear()
	t.ops = OpStats{}
}

func (t *scanSep) Len() int          { return t.narrow.Len() + t.wide.Len() }
func (t *scanSep) Cap() int          { return t.narrow.Cap() + t.wide.Cap() }
func (t *scanSep) Snapshot() []Entry { return append(t.narrow.Snapshot(), t.wide.Snapshot()...) }
func (t *scanSep) Ops() OpStats      { return t.ops }

// TestTableSparsePruneVsFullScanOracle drives each organization and its
// full-scan oracle through sparse, prune-heavy streams: a handful of live
// rows between prunes spread over a wide row domain, bursts aimed at one pa
// set so it fills and borrows other sets' ways, mid-stream Clear followed by
// reuse, and Restore. After every operation the results, OpStats and the
// Snapshot — in its exact order, which checkpoints serialize — must match.
// The separated table is built from two faTables, so its oracle is the same
// organization over two scanFA sub-tables.
func TestTableSparsePruneVsFullScanOracle(t *testing.T) {
	type pair struct {
		name       string
		got, want  func() Table
		nsets      int
		prefersSet bool
	}
	pairs := []pair{
		{"fa", func() Table { return newFATable(130) }, func() Table { return newScanFA(130) }, 1, false},
		{"fa-wide", func() Table { return newFATable(556) }, func() Table { return newScanFA(556) }, 1, false},
		{"pa", func() Table { return newPATable(48, 8) }, func() Table { return newScanPA(48, 8) }, 6, true},
		{"pa-multiword", func() Table { return newPATable(300, 100) }, func() Table { return newScanPA(300, 100) }, 3, true},
		{"pa-paper", func() Table { return newPATable(556, 64) }, func() Table { return newScanPA(556, 64) }, 9, true},
		{"sep", func() Table { return newSepTable(16, 96, 4) }, func() Table { return newScanSep(16, 96, 4) }, 1, false},
	}
	for _, pc := range pairs {
		t.Run(pc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			got, want := pc.got(), pc.want()
			check := func(step int, what string) {
				t.Helper()
				if g, w := got.Ops(), want.Ops(); g != w {
					t.Fatalf("step %d (%s): Ops %+v, oracle %+v", step, what, g, w)
				}
				if g, w := got.Snapshot(), want.Snapshot(); !entriesEqual(g, w) {
					t.Fatalf("step %d (%s): Snapshot\n got    %+v\n oracle %+v", step, what, g, w)
				}
				if got.Len() != want.Len() {
					t.Fatalf("step %d (%s): Len %d, oracle %d", step, what, got.Len(), want.Len())
				}
			}
			const domain = 1 << 16
			live := []int{}
			var spills, prunedTotal int64
			// act is TWiCe's use of a table on an ACT: touch, insert on miss.
			act := func(step, row int) {
				ge, gok := got.Touch(row)
				we, wok := want.Touch(row)
				if gok != wok || ge != we {
					t.Fatalf("step %d: Touch(%d) = %+v,%v, oracle %+v,%v", step, row, ge, gok, we, wok)
				}
				if !gok {
					gerr, werr := got.Insert(row), want.Insert(row)
					if (gerr == nil) != (werr == nil) {
						t.Fatalf("step %d: Insert(%d) = %v, oracle %v", step, row, gerr, werr)
					}
					if gerr == nil {
						live = append(live, row)
					}
				}
			}
			for step := 0; step < 20000; step++ {
				var row int
				if len(live) > 0 && rng.Intn(2) == 0 {
					row = live[rng.Intn(len(live))]
				} else {
					row = rng.Intn(domain)
				}
				switch op := rng.Intn(1000); {
				case op < 600:
					act(step, row)
				case op < 640 && pc.prefersSet:
					// A burst aimed at one set: more rows than it has ways,
					// so the tail borrows other sets' ways.
					s := rng.Intn(pc.nsets)
					for k := 0; k < got.Cap()/pc.nsets+2; k++ {
						act(step, s+pc.nsets*rng.Intn(domain/pc.nsets))
					}
				case op < 650:
					got.Remove(row)
					want.Remove(row)
				case op < 900: // prune-heavy: most streams hold only a few rows
					thPI := 1 + rng.Intn(4)
					g, w := got.Prune(thPI), want.Prune(thPI)
					if g != w {
						t.Fatalf("step %d: Prune(%d) = %d, oracle %d", step, thPI, g, w)
					}
					prunedTotal += int64(g)
					check(step, "after prune")
					live = live[:0]
					for _, e := range got.Snapshot() {
						live = append(live, e.Row)
					}
				case op < 995:
					ge, gok := got.Lookup(row)
					we, wok := want.Lookup(row)
					if gok != wok || ge != we {
						t.Fatalf("step %d: Lookup(%d) = %+v,%v, oracle %+v,%v", step, row, ge, gok, we, wok)
					}
				default:
					// Clear then reuse: both sides must hand out the same
					// slots afterwards, which the exact-order Snapshot pins.
					spills += got.Ops().Spills
					got.Clear()
					want.Clear()
					live = live[:0]
				}
				check(step, "step")
			}
			spills += got.Ops().Spills

			// Restore a snapshot taken after a prune into both cleared
			// tables; the entries must land identically.
			got.Prune(1)
			want.Prune(1)
			snap := got.Snapshot()
			got.Clear()
			want.Clear()
			for _, e := range snap {
				if gerr, werr := got.Restore(e), want.Restore(e); (gerr == nil) != (werr == nil) {
					t.Fatalf("Restore(%+v) = %v, oracle %v", e, gerr, werr)
				}
			}
			check(-1, "after restore")
			if prunedTotal == 0 {
				t.Fatal("stream pruned nothing")
			}
			if pc.prefersSet && spills == 0 {
				t.Fatal("stream never borrowed a set")
			}
		})
	}
}

// TestPruneZeroAllocs pins the per-REF table update: refilling a few rows
// and pruning them away must not reach the heap for any organization.
func TestPruneZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, bt := range benchTables() {
		t.Run(bt.name, func(t *testing.T) {
			tb := bt.make()
			fillHalf(t, tb, 4)
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				for j := 0; j < 8; j++ {
					if err := tb.Insert(1<<20 + i*8 + j); err != nil {
						t.Fatal(err)
					}
				}
				tb.Prune(2) // the fresh rows (ActCnt 1) all prune
				i++
			})
			if allocs != 0 {
				t.Fatalf("Table.Prune allocates %v per run, want 0", allocs)
			}
		})
	}
}

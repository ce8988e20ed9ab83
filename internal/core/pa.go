package core

import (
	"fmt"
	"math/bits"
)

// paTable is the pseudo-associative organization (pa-TWiCe, §6.1): the table
// is split into sets; each row has a preferred set (row mod #sets) and is
// normally stored there. When the preferred set is full the entry borrows a
// slot in another set and the host set's set-borrowing (SB) indicator for the
// preferred set is incremented, so later lookups know which non-preferred
// sets can possibly hold the row. Common-case lookups touch a single set,
// which is where the energy saving over fa-TWiCe comes from.
//
// Each set carries an occupancy mask, so searches, prunes and Clear visit
// only valid ways and skip empty sets outright: a prune costs what the
// table holds, not its 576-way capacity.
type paTable struct {
	ways  int       //twicelint:keep geometry, fixed at construction
	words int       //twicelint:keep occupancy words per set, fixed at construction
	sets  [][]Entry //twicelint:keep stale ways are unreadable; occ is the source of truth
	// occ[s*words + w/64] has bit w%64 set when way w of set s is valid.
	occ []uint64
	sb  [][]int // sb[host][preferred] = entries of `preferred` stored in `host`
	len int
	ops OpStats
}

// newPATable builds a pseudo-associative table with enough sets of the given
// way count to hold capacity entries.
func newPATable(capacity, ways int) *paTable {
	if ways <= 0 {
		ways = 64
	}
	nsets := (capacity + ways - 1) / ways
	if nsets < 1 {
		nsets = 1
	}
	words := (ways + 63) / 64
	t := &paTable{
		ways:  ways,
		words: words,
		sets:  make([][]Entry, nsets),
		occ:   make([]uint64, nsets*words),
		sb:    make([][]int, nsets),
	}
	for s := range t.sets {
		t.sets[s] = make([]Entry, ways)
		t.sb[s] = make([]int, nsets)
	}
	return t
}

// setOcc returns set s's occupancy words.
func (t *paTable) setOcc(s int) []uint64 { return t.occ[s*t.words : (s+1)*t.words] }

func (t *paTable) preferred(row int) int { return row % len(t.sets) }

// findInSet scans the valid ways of one set for the row; returns the way
// index or -1.
func (t *paTable) findInSet(s, row int) int {
	for wi, m := range t.setOcc(s) {
		for ; m != 0; m &= m - 1 {
			if w := wi<<6 + bits.TrailingZeros64(m); t.sets[s][w].Row == row {
				return w
			}
		}
	}
	return -1
}

// locate finds the row, probing the preferred set first and then any set
// whose SB indicator shows borrowed entries for the preferred set. It
// updates probe statistics when counted is true.
func (t *paTable) locate(row int, counted bool) (set, way int) {
	p := t.preferred(row)
	if counted {
		t.ops.SetsProbed++
	}
	if w := t.findInSet(p, row); w >= 0 {
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
		if w := t.findInSet(s, row); w >= 0 {
			return s, w
		}
	}
	return -1, -1
}

//twicelint:hotpath per-ACT table op, reached through the Table interface
func (t *paTable) Touch(row int) (Entry, bool) {
	t.ops.Searches++
	s, w := t.locate(row, true)
	if s < 0 {
		return Entry{}, false
	}
	t.sets[s][w].ActCnt++
	return t.sets[s][w], true
}

func (t *paTable) Lookup(row int) (Entry, bool) {
	s, w := t.locate(row, false)
	if s < 0 {
		return Entry{}, false
	}
	return t.sets[s][w], true
}

// emptyWay returns the lowest empty way of set s, or -1 when it is full.
func (t *paTable) emptyWay(s int) int {
	for wi, m := range t.setOcc(s) {
		if free := ^m; free != 0 {
			if w := wi<<6 + bits.TrailingZeros64(free); w < t.ways {
				return w
			}
		}
	}
	return -1
}

func (t *paTable) Insert(row int) error {
	if s, _ := t.locate(row, false); s >= 0 {
		return fmt.Errorf("core: insert of already-tracked row %d", row)
	}
	p := t.preferred(row)
	s, w := p, t.emptyWay(p)
	if w < 0 {
		s = -1
		for q := range t.sets {
			if q == p {
				continue
			}
			if ww := t.emptyWay(q); ww >= 0 {
				s, w = q, ww
				break
			}
		}
		if s < 0 {
			return fmt.Errorf("core: pa table full (%d entries); sizing invariant violated", t.Cap())
		}
		t.sb[s][p]++
		t.ops.Spills++
	}
	t.sets[s][w] = Entry{Row: row, ActCnt: 1, Life: 1}
	t.occ[s*t.words+w>>6] |= 1 << (uint(w) & 63)
	t.len++
	t.ops.Inserts++
	if t.len > t.ops.PeakOccupancy {
		t.ops.PeakOccupancy = t.len
	}
	return nil
}

func (t *paTable) invalidate(s, w int) {
	row := t.sets[s][w].Row
	if p := t.preferred(row); p != s {
		t.sb[s][p]--
	}
	t.occ[s*t.words+w>>6] &^= 1 << (uint(w) & 63)
	t.len--
}

// Restore implements Table: insert with explicit counts.
func (t *paTable) Restore(e Entry) error {
	if err := t.Insert(e.Row); err != nil {
		return err
	}
	if s, w := t.locate(e.Row, false); s >= 0 {
		t.sets[s][w] = e
	}
	return nil
}

func (t *paTable) Remove(row int) {
	s, w := t.locate(row, false)
	if s < 0 {
		return
	}
	t.invalidate(s, w)
	t.ops.Removes++
}

//twicelint:hotpath per-REF table update, reached through the Table interface
func (t *paTable) Prune(thPI int) int {
	pruned := 0
	for i, m := range t.occ {
		s, base := i/t.words, i%t.words<<6
		for ; m != 0; m &= m - 1 {
			w := base + bits.TrailingZeros64(m)
			e := &t.sets[s][w]
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

// Clear implements Table: every way emptied, all set-borrowing indicators
// zeroed, counters reset — storage untouched. Only occupied sets are
// visited: a set's indicators can be non-zero only while it hosts a
// borrowed entry.
func (t *paTable) Clear() {
	for s := range t.sets {
		lo, hi := s*t.words, (s+1)*t.words
		for _, m := range t.occ[lo:hi] {
			if m != 0 {
				clear(t.occ[lo:hi])
				clear(t.sb[s])
				break
			}
		}
	}
	t.len = 0
	t.ops = OpStats{}
}

func (t *paTable) Len() int { return t.len }
func (t *paTable) Cap() int { return len(t.sets) * t.ways }

func (t *paTable) Snapshot() []Entry {
	out := make([]Entry, 0, t.len)
	for i, m := range t.occ {
		s, base := i/t.words, i%t.words<<6
		for ; m != 0; m &= m - 1 {
			out = append(out, t.sets[s][base+bits.TrailingZeros64(m)])
		}
	}
	return out
}

func (t *paTable) Ops() OpStats { return t.ops }

// Sets returns the set count (for area/energy reporting).
func (t *paTable) Sets() int { return len(t.sets) }

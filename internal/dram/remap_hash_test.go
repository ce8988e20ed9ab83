package dram

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

// layoutHash digests every bank's generated remap layout of a DDR4_2400
// device built from seed, plus the next value the rng yields afterwards, so
// both the layouts and the number of rng draws that produced them are pinned.
func layoutHash(t *testing.T, seed int64) uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d, err := NewDevice(DDR4_2400(), rng)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, b := range d.Banks() {
		rt := b.Remap()
		put(len(rt.spareLogical))
		for _, v := range rt.spareLogical {
			put(v)
		}
		for i, v := range rt.remappedLogical {
			put(v)
			put(rt.remappedPhys[i])
		}
	}
	put(int(rng.Int63()))
	return h.Sum64()
}

// TestGenerateRemapTableLayoutsPinned pins the generated layouts of the
// default device at seeds 1–3. Any change to GenerateRemapTable's rng draw
// order or to the layout it derives from the draws moves these hashes.
func TestGenerateRemapTableLayoutsPinned(t *testing.T) {
	want := map[int64]uint64{
		1: 0x1f50f86acd45e593,
		2: 0x092dafc8d3fbd33e,
		3: 0xe51a412959268af4,
	}
	for seed := int64(1); seed <= 3; seed++ {
		if got := layoutHash(t, seed); got != want[seed] {
			t.Errorf("seed %d: layout hash %#x, want %#x", seed, got, want[seed])
		}
	}
}

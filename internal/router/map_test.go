package router

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"probe/internal/core"
	"probe/internal/zorder"
)

// TestMapEncodeDecodeRoundTrip pins the stable shard-map encoding:
// decode∘encode is the identity on bytes, for maps with and without
// replicas.
func TestMapEncodeDecodeRoundTrip(t *testing.T) {
	m, err := BuildEvenMap(4, []string{"a:1", "b:1", "c:1"},
		[][]string{{"a:2"}, nil, {"c:2", "c:3"}})
	if err != nil {
		t.Fatal(err)
	}
	enc1, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := DecodeMap(enc1)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := m2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Fatalf("encoding not byte-stable:\n%s\nvs\n%s", enc1, enc2)
	}
	if m2.PrefixBits != m.PrefixBits || len(m2.Shards) != len(m.Shards) {
		t.Fatal("decoded map differs structurally")
	}
	for i := range m.Shards {
		if m2.Shards[i].Slots != m.Shards[i].Slots || m2.Shards[i].Primary != m.Shards[i].Primary {
			t.Fatalf("shard %d differs after round trip", i)
		}
	}
}

// TestDecodeMapRejects pins Validate's rejections: gaps, overlaps,
// missing primaries, bad versions, unknown fields.
func TestDecodeMapRejects(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"unknown field", `{"version":1,"prefix_bits":2,"bogus":1,"shards":[{"slots":[0,3],"primary":"a"}]}`},
		{"bad version", `{"version":9,"prefix_bits":2,"shards":[{"slots":[0,3],"primary":"a"}]}`},
		{"gap", `{"version":1,"prefix_bits":2,"shards":[{"slots":[0,1],"primary":"a"},{"slots":[3,3],"primary":"b"}]}`},
		{"overlap", `{"version":1,"prefix_bits":2,"shards":[{"slots":[0,2],"primary":"a"},{"slots":[2,3],"primary":"b"}]}`},
		{"short coverage", `{"version":1,"prefix_bits":2,"shards":[{"slots":[0,2],"primary":"a"}]}`},
		{"no primary", `{"version":1,"prefix_bits":2,"shards":[{"slots":[0,3],"primary":""}]}`},
		{"no shards", `{"version":1,"prefix_bits":2,"shards":[]}`},
		{"prefix too long", `{"version":1,"prefix_bits":63,"shards":[{"slots":[0,0],"primary":"a"}]}`},
	}
	for _, tc := range cases {
		if _, err := DecodeMap([]byte(tc.json)); err == nil {
			t.Errorf("%s: DecodeMap accepted invalid map", tc.name)
		}
	}
}

// TestBuildEvenMapCoverage checks even maps for many (bits, shards)
// combinations: slots tile exactly and sizes differ by at most one.
func TestBuildEvenMapCoverage(t *testing.T) {
	for bits := 1; bits <= core.MaxPrefixBits; bits += 3 {
		slots := core.PrefixSlots(bits)
		for n := 1; uint64(n) <= slots && n <= 9; n++ {
			addrs := make([]string, n)
			for i := range addrs {
				addrs[i] = "h:" + string(rune('a'+i))
			}
			m, err := BuildEvenMap(bits, addrs, nil)
			if err != nil {
				t.Fatalf("bits=%d n=%d: %v", bits, n, err)
			}
			var minSz, maxSz uint64
			for i, s := range m.Shards {
				sz := s.Slots[1] - s.Slots[0] + 1
				if i == 0 {
					minSz, maxSz = sz, sz
				} else {
					minSz, maxSz = min(minSz, sz), max(maxSz, sz)
				}
			}
			if maxSz-minSz > 1 {
				t.Fatalf("bits=%d n=%d: shard sizes differ by %d slots", bits, n, maxSz-minSz)
			}
		}
	}
}

// randValidMap cuts 2^bits prefix slots into contiguous runs of random,
// uneven lengths: any map Validate accepts has this shape.
func randValidMap(t *testing.T, rng *rand.Rand) *Map {
	t.Helper()
	bits := 1 + rng.Intn(core.MaxPrefixBits)
	slots := core.PrefixSlots(bits)
	m := &Map{Version: MapVersion, PrefixBits: bits}
	for next := uint64(0); next < slots; {
		last := next + uint64(rng.Int63n(int64(slots-next)))
		if len(m.Shards) == 8 || rng.Intn(4) == 0 {
			last = slots - 1
		}
		m.Shards = append(m.Shards, ShardDef{Slots: [2]uint64{next, last}, Primary: "h"})
		next = last + 1
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("generated map is invalid: %v", err)
	}
	return m
}

// TestOwnerOfMatchesPrefixArithmetic cross-checks the map's routing
// against core's prefix arithmetic on an even map and on random valid
// ones. The shard ranges tile the key space in ascending order with
// every key of shard i below every key of shard i+1, and a key's owner
// is exactly the shard whose range contains it — the two facts that
// make Router.Range's shard-order drain a z-order stream.
func TestOwnerOfMatchesPrefixArithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	even, err := BuildEvenMap(6, []string{"a", "b", "c", "d", "e"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	maps := []*Map{even}
	for i := 0; i < 60; i++ {
		maps = append(maps, randValidMap(t, rng))
	}
	for _, m := range maps {
		ranges := make([]core.ZRange, len(m.Shards))
		for i := range m.Shards {
			ranges[i], err = m.Range(i)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 && (ranges[i-1].Hi >= ranges[i].Lo || ranges[i-1].Hi+1 != ranges[i].Lo) {
				t.Fatalf("shard %d range %+v does not start right above shard %d's %+v", i, ranges[i], i-1, ranges[i-1])
			}
		}
		if ranges[0].Lo != 0 || ranges[len(ranges)-1].Hi != ^uint64(0) {
			t.Fatalf("shard ranges do not span the key space: first %+v last %+v", ranges[0], ranges[len(ranges)-1])
		}
		for trial := 0; trial < 200; trial++ {
			z := rng.Uint64()
			if trial < 2*len(ranges) { // the boundaries themselves
				z = ranges[trial/2].Lo
				if trial%2 == 1 {
					z = ranges[trial/2].Hi
				}
			}
			own := m.OwnerOf(z)
			for i, r := range ranges {
				if r.Contains(z) != (i == own) {
					t.Fatalf("OwnerOf(%#x) = shard %d, but shard %d's range %+v contains it: %v", z, own, i, r, r.Contains(z))
				}
			}
			if slot := core.SlotOfKey(z, m.PrefixBits); slot < m.Shards[own].Slots[0] || slot > m.Shards[own].Slots[1] {
				t.Fatalf("slot %d of key %#x outside shard %d's slots %v", slot, z, own, m.Shards[own].Slots)
			}
		}
	}
}

// TestCoverMatchesBruteForce checks the one routing rule for boxes
// against its definition: Cover is exactly the set of owners of the
// box's pixels. On an 8x8 and on an asymmetric 16x4 grid, over 2 to 7
// even shards and random uneven maps, including maps cut finer than a
// pixel, where some shards own none.
func TestCoverMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, g := range []zorder.Grid{zorder.MustGrid(2, 3), zorder.MustGridAsym(4, 2)} {
		var maps []*Map
		for n := 2; n <= 7; n++ {
			addrs := make([]string, n)
			for i := range addrs {
				addrs[i] = "h"
			}
			for _, bits := range []int{DefaultPrefixBits(n), 8} {
				m, err := BuildEvenMap(bits, addrs, nil)
				if err != nil {
					t.Fatal(err)
				}
				maps = append(maps, m)
			}
		}
		for i := 0; i < 30; i++ {
			maps = append(maps, randValidMap(t, rng))
		}
		trimmed := 0
		for _, m := range maps {
			for trial := 0; trial < 200; trial++ {
				lo, hi := make([]uint32, 2), make([]uint32, 2)
				for d := range lo {
					a, b := uint32(rng.Intn(int(g.SideOf(d)))), uint32(rng.Intn(int(g.SideOf(d))))
					lo[d], hi[d] = min(a, b), max(a, b)
				}
				owners := map[int]bool{}
				for x := lo[0]; x <= hi[0]; x++ {
					for y := lo[1]; y <= hi[1]; y++ {
						owners[m.OwnerOf(g.ShuffleKey([]uint32{x, y}))] = true
					}
				}
				var want []int
				for i := range m.Shards {
					if owners[i] {
						want = append(want, i)
					}
				}
				got := m.Cover(g, lo, hi)
				if !slices.Equal(got, want) {
					t.Fatalf("%v, %d shards of %d prefix bits: Cover(%v, %v) = %v, the pixels' owners are %v",
						g, len(m.Shards), m.PrefixBits, lo, hi, got, want)
				}
				first, last := m.OwnerOf(g.ShuffleKey(lo)), m.OwnerOf(g.ShuffleKey(hi))
				trimmed += last - first + 1 - len(got)
			}
		}
		if trimmed == 0 {
			t.Errorf("%v: no box spanned in z a shard it does not touch; the test compares nothing", g)
		}
	}
}

// TestDefaultPrefixBits pins the sizing rule: enough slots for at
// least 4 per shard, capped at the partition bound.
func TestDefaultPrefixBits(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 2}, {2, 3}, {3, 4}, {4, 4}, {8, 5}, {100, 9}, {1000, core.MaxPrefixBits},
	} {
		if got := DefaultPrefixBits(tc.n); got != tc.want {
			t.Errorf("DefaultPrefixBits(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

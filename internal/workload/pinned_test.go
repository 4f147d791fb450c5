package workload

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"probe/internal/geom"
	"probe/internal/zorder"
)

// digest is an FNV-1a hash of the points' ids and coordinates, in
// order.
func digest(pts []geom.Point) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range pts {
		binary.LittleEndian.PutUint64(b[:], p.ID)
		h.Write(b[:])
		for _, c := range p.Coords {
			binary.LittleEndian.PutUint32(b[:4], c)
			h.Write(b[:4])
		}
	}
	return h.Sum64()
}

// TestGeneratorsPinned pins the exact output of every generator and of
// Dedupe for fixed seeds: the points every experiment, golden file and
// benchmark data set is built from. A change to how they are computed
// must leave these digests alone. The generators run on src, a
// symmetric grid; Dedupe runs on g, which its input fits after each
// coordinate is taken modulo g's side on its axis. That input is the
// uniform set, the clustered set and a repeat of the uniform set's
// first 500 points, so every grid has collisions, and the heavy ones
// on 2 x 4 and on the asymmetric (3, 5).
func TestGeneratorsPinned(t *testing.T) {
	cases := []struct {
		name                                 string
		src, g                               zorder.Grid
		uniform, clustered, diagonal, dedupe uint64
	}{
		{"2x12", zorder.MustGrid(2, 12), zorder.MustGrid(2, 12), 0xcac324848d45f285, 0xd231556eaa37b816, 0xab3cdffa3f91d779, 0x97f34ce9daee1674},
		{"2x4", zorder.MustGrid(2, 4), zorder.MustGrid(2, 4), 0x875d8ccf522e2828, 0x69e306602c22d788, 0xa39bf426fb0c8699, 0x87eb071ed15fe45},
		{"asym3,5", zorder.MustGrid(2, 5), zorder.MustGridAsym(3, 5), 0x2f3b291e7e32cc18, 0xfe14904f0d295d96, 0xa75b3d5465364181, 0x90d39d1bcbdc781c},
		{"3x6", zorder.MustGrid(3, 6), zorder.MustGrid(3, 6), 0x20d678cc3466aa30, 0x782734cada259f2e, 0xc7d26bdfed57f05f, 0x3699c0ec9eb38b16},
		{"2x32", zorder.MustGrid(2, 32), zorder.MustGrid(2, 32), 0x2395764de43ced75, 0xc4c771d41f7df377, 0x5cb44c7f6923f6c2, 0x17129d4fa1acb087},
	}
	for _, c := range cases {
		sd := float64(c.src.Side()) / 32
		u := Uniform(c.src, 3000, 1)
		cl := Clustered(c.src, 6, 200, sd, 2)
		got := [4]uint64{digest(u), digest(cl), digest(Diagonal(c.src, 2000, sd, 3))}
		in := append(append(append([]geom.Point(nil), u...), cl...), u[:500]...)
		for _, p := range in {
			for d := range p.Coords {
				p.Coords[d] = uint32(uint64(p.Coords[d]) % c.g.SideOf(d))
			}
		}
		got[3] = digest(Dedupe(c.g, in))
		want := [4]uint64{c.uniform, c.clustered, c.diagonal, c.dedupe}
		for i, name := range []string{"Uniform", "Clustered", "Diagonal", "Dedupe"} {
			if got[i] != want[i] {
				t.Errorf("%s %s: digest %#x, want %#x", c.name, name, got[i], want[i])
			}
		}
	}
}

// Flightdata: a 3-d workload demonstrating the paper's claim that
// "algorithms based on z order work without modification in all
// dimensions. This is because of the reduction to 1d" (Section 3.3).
//
// Aircraft positions (x, y, altitude) are indexed on a 3-d grid; the
// same range-search merge answers airspace-volume queries, and a
// partial-match query ("everything at flight level 320, any
// position") exercises the O(N^(1-t/k)) case.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"probe"
)

func main() {
	// A 3-d space: 1024 x 1024 ground grid x 512 altitude bands — an
	// asymmetric grid, since altitude needs less resolution.
	g := probe.MustGridAsym(10, 10, 9)
	db, err := probe.Open(g, probe.WithLeafCapacity(20))
	if err != nil {
		log.Fatal(err)
	}

	// Simulate 20000 aircraft tracks: cruising traffic concentrated
	// at a handful of flight levels plus climbing/descending noise.
	rng := rand.New(rand.NewSource(320))
	levels := []uint32{280, 300, 320, 340, 360}
	var pts []probe.Point
	for i := 0; i < 20000; i++ {
		alt := levels[rng.Intn(len(levels))]
		if rng.Intn(4) == 0 {
			alt = uint32(rng.Intn(512)) // climbing or descending
		}
		pts = append(pts, probe.Point{
			ID:     uint64(i),
			Coords: []uint32{uint32(rng.Intn(1024)), uint32(rng.Intn(1024)), alt},
		})
	}
	if err := db.InsertAll(pts); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d aircraft positions in 3-d across %d pages\n",
		db.Len(), db.LeafPages())

	// An airspace volume: a sector over the approach corridor,
	// altitudes 250-350.
	sector, err := probe.NewBox(
		[]uint32{400, 400, 250},
		[]uint32{600, 700, 350},
	)
	if err != nil {
		log.Fatal(err)
	}
	hits, stats, err := db.RangeSearch(sector)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sector query %v: %d aircraft, %d pages (efficiency %.2f)\n",
		sector, len(hits), stats.DataPages, stats.Efficiency(20))

	// Partial match: everything at flight level 320, t=1 of k=3.
	fl320, stats, err := db.PartialMatch(
		[]bool{false, false, true},
		[]uint32{0, 0, 320},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flight level 320: %d aircraft, %d pages\n", len(fl320), stats.DataPages)

	// Nearest traffic to a position — conflict probing.
	own := []uint32{512, 512, 320}
	neighbors, _, err := db.Nearest(own, 3, probe.Euclidean)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("nearest traffic to (512, 512, FL320):")
	for _, n := range neighbors {
		c := n.Point.Coords
		fmt.Printf("  aircraft %d at (%d, %d, FL%d), distance %.1f\n",
			n.Point.ID, c[0], c[1], c[2], n.Dist)
	}
}

// Quickstart: index points on a grid and run a range query, the
// paper's headline problem (Figure 1). Demonstrates the public API's
// basic workflow and the page-access statistics.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"probe"
)

func main() {
	// A 1024 x 1024 space (10 bits per dimension).
	g := probe.MustGrid(2, 10)
	db, err := probe.Open(g, probe.WithLeafCapacity(20))
	if err != nil {
		log.Fatal(err)
	}

	// Index 5000 random points. In the paper's terms, this computes
	// the z value of each point by interleaving the bits of its
	// coordinates and stores the sequence P in a B+-tree.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		p := probe.Pt2(uint64(i), uint32(rng.Intn(1024)), uint32(rng.Intn(1024)))
		if err := db.Insert(p); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("indexed %d points across %d data pages\n", db.Len(), db.LeafPages())

	// Find all points with 200 <= x <= 400 and 100 <= y <= 250.
	box := probe.Box2(200, 400, 100, 250)
	results, stats, err := db.RangeSearch(box)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("range query %v matched %d points\n", box, len(results))
	fmt.Printf("touched %d data pages (efficiency %.2f), %d random accesses\n",
		stats.DataPages, stats.Efficiency(20), stats.Seeks)
	for _, p := range results[:min(5, len(results))] {
		fmt.Printf("  point %d at (%d, %d)\n", p.ID, p.Coords[0], p.Coords[1])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

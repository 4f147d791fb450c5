// Minidb: a miniature GIS database session that strings together the
// DBMS-side machinery the paper argues for — relations over spatial
// data (§4), the element domain, cost estimates for planning (§2's
// "optimizations of set-at-a-time operators must be done by the
// DBMS"), priced by the index itself, and the page-count accounting of
// §5, including a what-if extrapolation to a 1986-era disk.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"probe/internal/core"
	"probe/internal/decompose"
	"probe/internal/disk"
	"probe/internal/geom"
	"probe/internal/planner"
	"probe/internal/relation"
	"probe/internal/workload"
	"probe/internal/zorder"
)

func main() {
	g := zorder.MustGrid(2, 10) // a 1024 x 1024 map

	// --- Storage: a simulated disk with an LRU buffer pool. ---
	pool := disk.MustPool(disk.MustMemStore(1024), 64, disk.LRU)

	// --- Load: 8000 sensor readings along a river (diagonal-ish). ---
	pts := workload.Diagonal(g, 8000, 24, 7)
	ix, err := core.NewIndexBulk(pool, g, core.IndexConfig{LeafCapacity: 20}, pts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d readings into %d data pages (bulk, 100%% fill)\n",
		ix.Len(), ix.Tree().LeafPages())

	// --- EXPLAIN: the index counts the leaves the box reaches. ---
	box := geom.Box2(700, 1000, 0, 300) // off-river sector: nearly empty
	plan, err := planner.PlanRange(&planner.Table{Name: "readings", Index: ix}, box, planner.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nEXPLAIN:\n  %s\n", plan.Description)

	// --- Run the index scan cold and account for pages, then
	// extrapolate to 1986: one 30 ms random access per physical read.
	// The planner only estimates; the caller runs. ---
	pool.Invalidate()
	results, stats, err := ix.RangeSearch(box, core.MergeLazy)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexecuted: %d readings, %d data pages touched (estimated %d)\n",
		len(results), stats.DataPages, plan.EstimatedPages)
	fmt.Printf("physical I/O: %d reads -> %v on a 30ms/access 1986 disk\n",
		stats.PhysReads, time.Duration(stats.PhysReads)*30*time.Millisecond)

	// --- The §4 relational pipeline: districts x readings. ---
	districts := []relation.CatalogEntry{
		{ID: 1, Object: geom.Box2(0, 341, 0, 341)},
		{ID: 2, Object: geom.Box2(342, 682, 342, 682)},
		{ID: 3, Object: geom.Box2(683, 1023, 683, 1023)},
	}
	dRel, err := relation.DecomposeObjects(g, districts, decompose.Options{MaxLen: 12}, "district", "zd")
	if err != nil {
		log.Fatal(err)
	}
	// Points relation with shuffled elements. Sample to keep the
	// demo output small.
	pRel := relation.New(relation.MustSchema(
		relation.Column{Name: "p", Type: relation.TID},
		relation.Column{Name: "x", Type: relation.TInt},
		relation.Column{Name: "y", Type: relation.TInt},
	))
	rng := rand.New(rand.NewSource(1))
	for _, p := range pts {
		if rng.Intn(8) == 0 {
			pRel.MustAppend(relation.Tuple{p.ID, int64(p.Coords[0]), int64(p.Coords[1])})
		}
	}
	shuffled, err := relation.ShufflePoints(g, pRel, "p", []string{"x", "y"}, "zp")
	if err != nil {
		log.Fatal(err)
	}
	joined, err := relation.SpatialJoin(shuffled, dRel, "zp", "zd")
	if err != nil {
		log.Fatal(err)
	}
	perDistrict, err := relation.GroupBy(joined, []string{"district"}, []relation.Agg{
		{Func: relation.Count, As: "readings"},
	})
	if err != nil {
		log.Fatal(err)
	}
	sorted, err := relation.SortBy(perDistrict, "district")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreadings per district (spatial join + group by, %d sampled):\n", pRel.Len())
	for _, row := range sorted.Tuples {
		fmt.Printf("  district %v: %v readings\n", row[0], row[1])
	}
}

package main

import (
	"os"
	"path/filepath"
	"testing"

	"probe"
)

func TestReadCSV(t *testing.T) {
	g := probe.MustGrid(2, 8)
	dir := t.TempDir()
	path := filepath.Join(dir, "pts.csv")
	content := "# comment\n1,10,20\n\n2, 30 , 40\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	pts, err := readCSV(g, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].ID != 1 || pts[1].Coords[0] != 30 || pts[1].Coords[1] != 40 {
		t.Fatalf("readCSV = %v", pts)
	}
}

func TestReadCSVErrors(t *testing.T) {
	g := probe.MustGrid(2, 4)
	dir := t.TempDir()
	cases := map[string]string{
		"badfields": "1,2\n",
		"badid":     "x,1,2\n",
		"badx":      "1,x,2\n",
		"bady":      "1,2,x\n",
		"oob":       "1,99,2\n",
	}
	for name, content := range cases {
		path := filepath.Join(dir, name+".csv")
		os.WriteFile(path, []byte(content), 0o644)
		if _, err := readCSV(g, path); err == nil {
			t.Errorf("%s: malformed CSV accepted", name)
		}
	}
	if _, err := readCSV(g, filepath.Join(dir, "missing.csv")); err == nil {
		t.Errorf("missing file accepted")
	}
}

func TestLoadPointsDistributions(t *testing.T) {
	g := probe.MustGrid(2, 8)
	for _, dist := range []string{"uniform", "clustered", "diagonal"} {
		pts, err := loadPoints(g, "", dist, 200, 1)
		if err != nil {
			t.Fatalf("%s: %v", dist, err)
		}
		if len(pts) != 200 {
			t.Fatalf("%s: %d points", dist, len(pts))
		}
	}
	if _, err := loadPoints(g, "", "weird", 10, 1); err == nil {
		t.Errorf("unknown distribution accepted")
	}
}

func TestRunRangeAndPartial(t *testing.T) {
	g := probe.MustGrid(2, 6)
	db, err := probe.Open(g, probe.WithLeafCapacity(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 64; i++ {
		db.Insert(probe.Pt2(i, uint32(i), uint32((i*3)%64)))
	}
	res, stats, err := runRange(db, g, []string{"0", "20", "0", "63"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 21 || stats.Results != 21 {
		t.Errorf("range = %d results", len(res))
	}
	if _, _, err := runRange(db, g, []string{"0", "20"}); err == nil {
		t.Errorf("wrong arg count accepted")
	}
	if _, _, err := runRange(db, g, []string{"0", "99", "0", "1"}); err == nil {
		t.Errorf("out-of-grid bound accepted")
	}
	if _, _, err := runRange(db, g, []string{"0", "x", "0", "1"}); err == nil {
		t.Errorf("non-numeric bound accepted")
	}
	if _, _, err := runRange(db, g, []string{"20", "0", "0", "1"}); err == nil {
		t.Errorf("inverted bounds accepted")
	}

	res, _, err = runPartial(db, "x=5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Coords[0] != 5 {
		t.Errorf("partial = %v", res)
	}
	if _, _, err := runPartial(db, "z=5"); err == nil {
		t.Errorf("bad dimension accepted")
	}
	if _, _, err := runPartial(db, "x"); err == nil {
		t.Errorf("missing value accepted")
	}
	if _, _, err := runPartial(db, "x=banana"); err == nil {
		t.Errorf("bad value accepted")
	}
}

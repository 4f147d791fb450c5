package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// TestSpecMatchesBenchmarkJSON: BENCHMARK.json is the rendering of the
// tables in spec.go; regenerate it with `go run . -spec` after
// changing them.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var a, b any
	if err := json.Unmarshal(want, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("BENCHMARK.json differs from spec.go; run `go run . -spec > ../BENCHMARK.json` in bench/")
	}
}

// TestDeclarations: names are well-formed and unique, bounds are the
// issue's, and every per-layer metric says which candidate end-to-end
// metric on which workload it should move.
func TestDeclarations(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", n, better)
		}
		if seen[n] {
			t.Errorf("%s declared twice", n)
		}
		seen[n] = true
	}
	wls := map[string]bool{}
	for _, w := range workloads {
		check(w.Name, "x", "lower")
		wls[w.Name] = true
		sum := 0
		for _, s := range w.Mix {
			sum += s
		}
		if sum != 100 {
			t.Errorf("%s: mix sums to %d", w.Name, sum)
		}
	}
	// The bounds are the issue's: a tenth for a timing, the contract's
	// largest for set-up time. A count's bound may be wider, because the
	// driver refuses one below the spread across seeds, but then the
	// issue's holds per seed. No bound is widened to pass the A/A check.
	cands := map[string]bool{}
	for _, m := range candidates {
		cands[m.Name] = true
		switch {
		case m.Name == "setup_s":
			if m.Bound != 0.25 || m.Demoted {
				t.Errorf("setup_s: bound %v demoted %v, want the contract's 0.25 with a bound", m.Bound, m.Demoted)
			}
		case m.SameSeed > 0:
			if m.SameSeed > 0.02 || m.Bound < m.SameSeed || m.Bound > 0.25 {
				t.Errorf("%s: bound %v, same seed %v", m.Name, m.Bound, m.SameSeed)
			}
		case m.Bound != 0.10:
			t.Errorf("%s: bound %v, the issue's is 0.10", m.Name, m.Bound)
		}
	}
	for _, m := range endToEnd {
		check(m.Name, m.Unit, m.Better)
	}
	if endToEnd[0].Name != "setup_s" {
		t.Error("no setup_s metric")
	}
	for _, m := range perLayer {
		check(m.Name, m.Unit, m.Better)
		// A demoted candidate is its own prediction.
		if demoted := m.Name == "client."+m.Moves && m.On == ""; demoted {
			continue
		}
		if !cands[m.Moves] || !wls[m.On] {
			t.Errorf("%s: should move %q on %q, which are not declared", m.Name, m.Moves, m.On)
		}
	}
	for _, n := range exactCounts {
		if !seen[n] {
			t.Errorf("exact count %s is not a per-layer metric", n)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads) < 2 || len(workloads) > 8 {
		t.Error("table sizes outside the contract")
	}
}

// TestQuickSmoke runs every workload end to end at a small size, with
// real child processes: answers verified, restart verified, and the
// names on the driver's line exactly the declared ones.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts child processes")
	}
	work := t.TempDir()
	bin, err := buildChildren(work)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(killAll)
	cfg := config{binDir: bin, workDir: work, outDir: t.TempDir(), sz: quickSizes}
	ctx := context.Background()

	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(ctx, cfg, w, 1, 1, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v", w.Name, trace, res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			var line struct {
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(driverLine(res)), &line); err != nil {
				t.Fatal(err)
			}
			want := map[string]bool{}
			for _, n := range metricNames(res) {
				want[n] = true
			}
			// What the run computed, not only what the line prints: a
			// metric set under an undeclared name would be dropped silently.
			for n := range res.Metrics {
				if unitOf(n) == "" {
					t.Errorf("%s trace=%v: computes undeclared metric %s", w.Name, trace, n)
				}
			}
			for n := range want {
				if _, ok := res.Metrics[n]; !ok {
					t.Errorf("%s trace=%v: declared metric %s not computed", w.Name, trace, n)
				}
			}
			for n, m := range line.Metrics {
				if !want[n] {
					t.Errorf("%s trace=%v: emits undeclared metric %s", w.Name, trace, n)
				}
				if m.Unit != unitOf(n) {
					t.Errorf("%s: unit %q, declared %q", n, m.Unit, unitOf(n))
				}
			}
			for n := range want {
				if _, ok := line.Metrics[n]; !ok {
					t.Errorf("%s trace=%v: declared metric %s not emitted", w.Name, trace, n)
				}
			}
		}
	}

	// The counted metrics repeat exactly for a seed and move with it.
	counts := func(seed int64) map[string]float64 {
		static := genPoints(benchGrid(), cfg.sz.Points, seed)
		m, err := runDrills(cfg, workloads[0], seed, static, 0)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b, c := counts(1), counts(1), counts(2)
	differs := false
	for _, n := range exactCounts {
		if a[n] != b[n] {
			t.Errorf("%s: %v then %v for the same seed", n, a[n], b[n])
		}
		if a[n] != c[n] {
			differs = true
		}
	}
	if !differs {
		t.Error("no exact count changed with the seed")
	}
}

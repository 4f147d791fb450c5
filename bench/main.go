// Command zbench is the repository's benchmark: four workloads over
// the z-order stack (embedded, served, served with writes, sharded),
// end-to-end metrics with regression bounds, and a traced pass that
// attributes them to layers. BENCHMARK.json at the repository root is
// its contract; README.md here explains every choice.
//
// The benchmark driver runs one workload per invocation:
//
//	bash bench/run.sh --workload serve_read --seed 7 --seconds 20 --trace 0
//
// and reads the JSON object on the last line of standard output.
// Without --workload the command runs the whole suite, untraced then
// traced, prints every metric by name and the latency budget, and
// writes bench/out/result.json; -aa does that as two sets of runs and
// checks them against each other.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// ceiling is the hard wall-clock limit of one workload run; the
// driver's own limit is 180 s.
const ceiling = 150 * time.Second

// aaRuns is the number of runs per set and workload of the A/A check,
// the benchmark driver's number.
const aaRuns = 10

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print the driver's JSON line; empty runs the suite")
		seed     = flag.Int64("seed", 1, "seed of the generated data and operation sequences")
		seconds  = flag.Float64("seconds", runSeconds, "measuring time per run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced pass")
		layers   = flag.Bool("layers", true, "suite: follow each workload's untraced run with its traced run")
		aa       = flag.Bool("aa", false, "run two sets of ten runs per workload on seeds seed..seed+9 and check spread and drift against the bounds")
		quick    = flag.Bool("quick", false, "small data and short phases: a smoke test, not a measurement")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json from the tables in spec.go and exit")
	)
	flag.Parse()
	if *spec {
		doc, err := benchmarkJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(doc)
		return
	}

	// Everything is written inside the checkout: binaries and scratch
	// stores under .bench_build/, results under bench/out/.
	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	build := filepath.Join(root, ".bench_build")
	cfg := config{outDir: filepath.Join(root, "bench", "out"), sz: fullSizes}
	if *quick {
		cfg.sz = quickSizes
	}
	for _, dir := range []string{build, cfg.outDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
	}
	if cfg.binDir, err = buildChildren(build); err != nil {
		fatal(err)
	}
	if cfg.workDir, err = os.MkdirTemp(build, "run-"); err != nil {
		fatal(err)
	}
	cleanup := func() {
		killAll()
		os.RemoveAll(cfg.workDir)
	}
	// Every exit path stops the children and removes the scratch
	// directory: normal return, error, SIGINT/SIGTERM, the ceiling.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		cleanup()
		os.Exit(130)
	}()
	code := run(cfg, *workload, *seed, *seconds, *trace != 0, *layers, *aa)
	cleanup()
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "zbench:", err)
	os.Exit(1)
}

func run(cfg config, workload string, seed int64, seconds float64, trace, layers, aa bool) int {
	ctx := context.Background()
	switch {
	case workload != "":
		w, ok := workloadByName(workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "zbench: unknown workload %q\n", workload)
			return 2
		}
		res, err := guarded(ctx, cfg, w, seed, seconds, trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zbench:", err)
			return 1
		}
		printResult(res)
		name := w.Name + ".json"
		if trace {
			name = w.Name + ".layers.json"
		}
		if err := writeJSON(filepath.Join(cfg.outDir, name), res); err != nil {
			fmt.Fprintln(os.Stderr, "zbench:", err)
			return 1
		}
		// The last line of standard output is the driver's.
		fmt.Println(driverLine(res))
		if !res.Correct {
			return 1
		}
		return 0
	case aa:
		return runAA(ctx, cfg, seed, seconds)
	default:
		return runSuite(ctx, cfg, seed, seconds, layers)
	}
}

// guarded is runWorkload under the wall-clock ceiling: a run that
// exceeds it fails instead of hanging the driver.
func guarded(ctx context.Context, cfg config, w workloadSpec, seed int64, seconds float64, trace bool) (*result, error) {
	type out struct {
		res *result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := runWorkload(ctx, cfg, w, seed, seconds, trace)
		done <- out{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(ceiling):
		killAll()
		return nil, fmt.Errorf("%s exceeded the %s wall-clock ceiling", w.Name, ceiling)
	}
}

// buildChildren compiles probed and zrouted into dir/bin, from the
// module that holds this one. It is the one place they are built; with
// the binaries already there and the sources unchanged the Go
// toolchain does nothing.
func buildChildren(dir string) (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "bin")
	abs, err := filepath.Abs(bin)
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", abs+string(filepath.Separator), "./cmd/probed", "./cmd/zrouted")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building probed and zrouted: %w", err)
	}
	return abs, nil
}

// repoRoot finds the directory of the probe module: the parent of this
// package's directory, whether the command runs from there or from it.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module probe\n") {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("run from the repository root or from bench/: no go.mod of module probe in . or ..")
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// unitOf looks a metric's unit up in the tables; it is empty for a
// name neither table declares.
func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range perLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

// metricNames returns the names on the driver's line for the run, in
// table order: the end-to-end metrics of an untraced run, the
// per-layer metrics of a traced one.
func metricNames(res *result) []string {
	var names []string
	if res.Traced {
		for _, m := range perLayer {
			names = append(names, m.Name)
		}
	} else {
		for _, m := range endToEnd {
			names = append(names, m.Name)
		}
	}
	return names
}

// driverLine renders the one JSON object the benchmark driver reads.
func driverLine(res *result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]mv)}
	for _, name := range metricNames(res) {
		line.Metrics[name] = mv{res.Metrics[name], unitOf(name)}
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // finite floats and strings only
	}
	return string(data)
}

// printResult lists every metric the run computed by name with its
// unit (an untraced run: the bounded ones, then the demoted
// candidates), then the budget table and anything that went wrong.
func printResult(res *result) {
	var b strings.Builder
	pass := "untraced"
	if res.Traced {
		pass = "traced"
	}
	fmt.Fprintf(&b, "== %s seed %d (%s): %d attempted, %d failed, %d tx conflicts, correct=%v\n",
		res.Workload, res.Seed, pass, res.Attempted, res.Failed, res.Conflicts, res.Correct)
	names := metricNames(res)
	if !res.Traced {
		for _, c := range candidates {
			if c.Demoted {
				names = append(names, c.reportName())
			}
		}
	}
	for _, name := range names {
		fmt.Fprintf(&b, "  %-34s %14.4f %s\n", name, res.Metrics[name], unitOf(name))
	}
	printBudget(&b, res)
	for _, p := range res.Problems {
		fmt.Fprintf(&b, "  PROBLEM: %s\n", p)
	}
	fmt.Print(b.String())
}

// hostInfo records where a result file was measured.
func hostInfo() map[string]any {
	info := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					info["cpu"] = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	if root, err := repoRoot(); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Dir = root
		if out, err := cmd.Output(); err == nil {
			info["commit"] = strings.TrimSpace(string(out))
		}
	}
	return info
}

// runSuite runs every workload, untraced and then traced, and writes
// the one result document.
func runSuite(ctx context.Context, cfg config, seed int64, seconds float64, layers bool) int {
	var all []*result
	code := 0
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			if trace && !layers {
				continue
			}
			res, err := guarded(ctx, cfg, w, seed, seconds, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "zbench:", err)
				return 1
			}
			printResult(res)
			all = append(all, res)
			if !res.Correct {
				code = 1
			}
		}
	}
	doc := map[string]any{"schema": "zbench/v1", "host": hostInfo(), "seconds": seconds, "results": all}
	if err := writeJSON(filepath.Join(cfg.outDir, "result.json"), doc); err != nil {
		fmt.Fprintln(os.Stderr, "zbench:", err)
		return 1
	}
	return code
}

// aaRow is one workload x metric line of the A/A report.
type aaRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Bound    float64   `json:"bound"`
	Demoted  bool      `json:"demoted"`
	A        []float64 `json:"a"` // one value per seed, first set
	B        []float64 `json:"b"` // the same seeds, second set
	MedianA  float64   `json:"median_a"`
	MedianB  float64   `json:"median_b"`
	SpreadA  float64   `json:"spread_a"`
	SpreadB  float64   `json:"spread_b"`
	Drift    float64   `json:"drift"`     // how much worse B's median is than A's, as a share of A's
	SameSeed float64   `json:"same_seed"` // the largest difference between a seed's two values, as a share of the first
	Pass     bool      `json:"pass"`
}

// quartileSpread is the distance between the first and the third
// quartile as a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (its default, exclusive
// method), because that is what the benchmark driver computes.
func quartileSpread(values []float64) (med, spread float64) {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	n := len(xs)
	if n < 2 {
		return median(xs), 0
	}
	q := func(k int) float64 {
		pos := float64(k)*float64(n+1)/4 - 1 // index of the k-th quartile, 0-based
		i := int(pos)
		if i < 0 {
			return xs[0]
		}
		if i >= n-1 {
			return xs[n-1]
		}
		return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
	}
	med = q(2)
	if med == 0 {
		return 0, 0
	}
	return med, (q(3) - q(1)) / med
}

// runAA is the A/A check: the same code measured as two sets of runs,
// each run on another seed, the same seeds in both sets. A candidate
// passes when both sets' spreads stay within its bound (set-up time
// excepted, as in the driver's rule), the second median is not worse
// than the first by more than the bound, and, for a count with a
// same-seed bound, no seed's two values differ by more than that. A
// candidate that fails is to be marked Demoted in spec.go, not given a
// wider bound; a demoted one is reported all the same and does not
// fail the check.
func runAA(ctx context.Context, cfg config, seed int64, seconds float64) int {
	type key struct{ w, m string }
	values := [2]map[key][]float64{{}, {}}
	exact := [2]map[string]float64{{}, {}}
	for set := 0; set < 2; set++ {
		for _, w := range workloads {
			for r := 0; r < aaRuns; r++ {
				res, err := guarded(ctx, cfg, w, seed+int64(r), seconds, false)
				if err != nil {
					fmt.Fprintln(os.Stderr, "zbench:", err)
					return 1
				}
				if !res.Correct {
					printResult(res)
					return 1
				}
				fmt.Fprintf(os.Stderr, "set %c %s seed %d: %.0f ops/s\n", 'A'+set, w.Name, seed+int64(r), res.Metrics["client.ops_per_s"])
				for _, m := range candidates {
					k := key{w.Name, m.Name}
					values[set][k] = append(values[set][k], res.Metrics[m.reportName()])
				}
			}
		}
		// The exact counts must be bit-identical between the sets.
		res, err := guarded(ctx, cfg, workloads[0], seed, seconds, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zbench:", err)
			return 1
		}
		for _, name := range exactCounts {
			exact[set][name] = res.Metrics[name]
		}
	}
	var rows []aaRow
	code := 0
	fmt.Printf("%-13s %-22s %12s %12s %8s %8s %8s %9s\n", "workload", "metric", "median A", "median B", "spread A", "spread B", "drift", "same seed")
	for _, w := range workloads {
		for _, m := range candidates {
			k := key{w.Name, m.Name}
			row := aaRow{Workload: w.Name, Metric: m.Name, Unit: m.Unit, Bound: m.Bound, Demoted: m.Demoted,
				A: values[0][k], B: values[1][k]}
			row.MedianA, row.SpreadA = quartileSpread(row.A)
			row.MedianB, row.SpreadB = quartileSpread(row.B)
			if row.MedianA != 0 {
				row.Drift = (row.MedianB - row.MedianA) / row.MedianA
				if m.Better == "higher" {
					row.Drift = -row.Drift
				}
			}
			for i, a := range row.A {
				if a != 0 {
					row.SameSeed = max(row.SameSeed, math.Abs(row.B[i]-a)/a)
				}
			}
			row.Pass = row.Drift <= m.Bound &&
				(m.Name == "setup_s" || (row.SpreadA <= m.Bound && row.SpreadB <= m.Bound)) &&
				(m.SameSeed == 0 || row.SameSeed <= m.SameSeed)
			verdict := "PASS"
			if !row.Pass {
				verdict = "FAIL"
				if !m.Demoted {
					code = 1
				}
			}
			note := fmt.Sprintf("bound %.0f%%", m.Bound*100)
			if m.SameSeed > 0 {
				note += fmt.Sprintf(", same seed %.0f%%", m.SameSeed*100)
			}
			if m.Demoted {
				note += ", demoted"
			}
			fmt.Printf("%-13s %-22s %12.4f %12.4f %7.1f%% %7.1f%% %+7.1f%% %8.1f%% %6s (%s)\n", w.Name, m.Name,
				row.MedianA, row.MedianB, row.SpreadA*100, row.SpreadB*100, row.Drift*100, row.SameSeed*100, verdict, note)
			rows = append(rows, row)
		}
	}
	for _, name := range exactCounts {
		same := exact[0][name] == exact[1][name]
		fmt.Printf("exact count %-32s %v vs %v identical=%v\n", name, exact[0][name], exact[1][name], same)
		if !same {
			code = 1
		}
	}
	doc := map[string]any{"schema": "zbench-aa/v2", "host": hostInfo(), "seconds": seconds, "runs": aaRuns,
		"first_seed": seed, "rows": rows, "exact_counts": exact[0]}
	if err := writeJSON(filepath.Join(cfg.outDir, "aa.json"), doc); err != nil {
		fmt.Fprintln(os.Stderr, "zbench:", err)
		return 1
	}
	return code
}

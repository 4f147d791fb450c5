// Command zquery builds a z-ordered spatial index over generated or
// CSV points and runs range or partial-match queries against it,
// printing results and page-access statistics. With -addr it instead
// speaks to a running probed server, executing the query remotely.
//
// Usage:
//
//	zquery [flags] XLO XHI YLO YHI
//	zquery [flags] -partial x=VALUE
//	zquery [flags] -e "SELECT ..." | -repl
//	zquery -addr HOST:PORT [-trace] [-nearest X,Y,M | -explain | -stats | -checkpoint] [XLO XHI YLO YHI]
//	zquery -addr HOST:PORT -e "SELECT ..." | -repl
//
// Examples:
//
//	zquery -n 5000 -dist uniform 100 300 50 180
//	zquery -points pts.csv 0 1023 0 1023
//	zquery -n 5000 -partial x=17
//	zquery -n 5000 -e "SELECT COUNT(*) FROM points WHERE CONTAINS(BOX(0,511,0,511))"
//	zquery -addr localhost:7331 100 300 50 180
//	zquery -addr localhost:7331 -nearest 512,512,5
//	zquery -addr localhost:7331 -explain 0 1023 0 1023
//	zquery -addr localhost:7331 -e "SELECT id, x, y FROM points WHERE NEAREST(POINT(512,512), 5)"
//
// CSV rows are "id,x,y".
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"probe"
	"probe/client"
	"probe/internal/workload"
)

func main() {
	var (
		bits       = flag.Int("bits", 10, "grid resolution in bits per dimension")
		n          = flag.Int("n", 5000, "number of generated points")
		dist       = flag.String("dist", "uniform", "point distribution: uniform, clustered, diagonal")
		seed       = flag.Int64("seed", 1986, "generator seed")
		file       = flag.String("points", "", "CSV file of id,x,y points (overrides -dist)")
		leafCap    = flag.Int("leaf", 20, "points per index page")
		partial    = flag.String("partial", "", "partial match, e.g. x=17 or y=250")
		verbose    = flag.Bool("v", false, "print matching points")
		addr       = flag.String("addr", "", "query a running probed server instead of a local index")
		nearest    = flag.String("nearest", "", "with -addr: m-nearest query as X,Y,M")
		explain    = flag.Bool("explain", false, "with -addr: print the server's plan for the range, don't run it")
		srvStats   = flag.Bool("stats", false, "with -addr: print server+database counters")
		checkpoint = flag.Bool("checkpoint", false, "with -addr: force a durability checkpoint")
		trace      = flag.Bool("trace", false, "with -addr: print the server's timing breakdown and span tree")
		timeout    = flag.Duration("timeout", 30*time.Second, "with -addr: per-request deadline")
		sqlText    = flag.String("e", "", "execute one spatial SQL statement (see docs/query.md) and exit")
		sqlRepl    = flag.Bool("repl", false, "interactive spatial SQL shell; exit/quit or EOF ends it")
	)
	flag.Parse()

	if *addr != "" {
		if *sqlText != "" || *sqlRepl {
			if err := runRemoteSQL(*addr, *sqlText, *sqlRepl, *trace, *timeout); err != nil {
				fatal(err)
			}
			return
		}
		if err := runRemote(*addr, *nearest, *explain, *srvStats, *checkpoint, *trace, *timeout, *verbose, flag.Args()); err != nil {
			fatal(err)
		}
		return
	}

	g, err := probe.NewGrid(2, *bits)
	if err != nil {
		fatal(err)
	}
	db, err := probe.Open(g, probe.WithLeafCapacity(*leafCap))
	if err != nil {
		fatal(err)
	}
	pts, err := loadPoints(g, *file, *dist, *n, *seed)
	if err != nil {
		fatal(err)
	}
	if err := db.InsertAll(pts); err != nil {
		fatal(err)
	}
	fmt.Printf("indexed %d points on %v: %d data pages of %d points\n",
		db.Len(), g, db.LeafPages(), *leafCap)

	if *sqlText != "" || *sqlRepl {
		ctx := context.Background()
		run := localRunner(db)
		if *sqlText != "" {
			if err := runSQL(ctx, run, *sqlText, os.Stdout); err != nil {
				fatal(err)
			}
		}
		if *sqlRepl {
			if err := repl(ctx, run, nil, os.Stdin, os.Stdout); err != nil {
				fatal(err)
			}
		}
		return
	}

	var results []probe.Point
	var stats probe.QueryStats
	switch {
	case *partial != "":
		results, stats, err = runPartial(db, *partial)
	default:
		results, stats, err = runRange(db, g, flag.Args())
	}
	if err != nil {
		fatal(err)
	}
	if *verbose {
		for _, p := range results {
			fmt.Printf("  %d (%d, %d)\n", p.ID, p.Coords[0], p.Coords[1])
		}
	}
	fmt.Printf("results: %d points\n", stats.Results)
	fmt.Printf("data pages accessed: %d (efficiency %.3f)\n",
		stats.DataPages, stats.Efficiency(*leafCap))
	fmt.Printf("random accesses (seeks): %d, elements/skips: %d\n", stats.Seeks, stats.Elements)
}

// runRemoteSQL executes -e / -repl statements over the wire. With
// trace, every statement runs traced and prints its server timing,
// trace ID, and span tree after the result — through a coordinator
// the tree is the full fan-out tree with every shard's subtree.
func runRemoteSQL(addr, text string, startRepl, trace bool, timeout time.Duration) error {
	cl, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	cl.SetTrace(trace)
	fmt.Printf("connected to %s, grid bits %v\n", addr, cl.GridBits())
	run := remoteRunner(cl)
	if text != "" {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		if err := runSQL(ctx, run, text, os.Stdout); err != nil {
			return err
		}
		printTrace(cl, trace)
	}
	if startRepl {
		// No per-session deadline: each statement carries the -timeout
		// via the runner's context below.
		return repl(context.Background(), func(ctx context.Context, stmt string) (sqlResult, error) {
			sctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			return run(sctx, stmt)
		}, func() { printTrace(cl, trace) }, os.Stdin, os.Stdout)
	}
	return nil
}

// runRemote executes the requested operation against a probed server.
func runRemote(addr, nearest string, explain, stats, checkpoint, trace bool, timeout time.Duration, verbose bool, args []string) error {
	cl, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	cl.SetTrace(trace)
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	fmt.Printf("connected to %s, grid bits %v\n", addr, cl.GridBits())

	switch {
	case stats:
		kvs, err := cl.Stats(ctx)
		if err != nil {
			return err
		}
		names := make([]string, 0, len(kvs))
		for name := range kvs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("%-48s %d\n", name, kvs[name])
		}
		return nil
	case checkpoint:
		qs, err := cl.Checkpoint(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("checkpointed (wal appends %d, syncs %d)\n", qs.WALAppends, qs.WALSyncs)
		printTrace(cl, trace)
		return nil
	case nearest != "":
		parts := strings.Split(nearest, ",")
		if len(parts) != 3 {
			return fmt.Errorf("bad -nearest %q, want X,Y,M", nearest)
		}
		vals := make([]uint64, 3)
		for i, p := range parts {
			if vals[i], err = strconv.ParseUint(strings.TrimSpace(p), 10, 32); err != nil {
				return fmt.Errorf("bad -nearest %q: %v", nearest, err)
			}
		}
		nbs, qs, err := cl.Nearest(ctx, []uint32{uint32(vals[0]), uint32(vals[1])}, int(vals[2]), probe.Euclidean)
		if err != nil {
			return err
		}
		for _, nb := range nbs {
			fmt.Printf("  %d %v dist %.3f\n", nb.Point.ID, nb.Point.Coords, nb.Dist)
		}
		fmt.Printf("results: %d neighbors, data pages accessed: %d\n", len(nbs), qs.DataPages)
		printTrace(cl, trace)
		return nil
	}

	lo, hi, err := parseBounds(args)
	if err != nil {
		return err
	}
	if explain {
		plan, err := cl.Explain(ctx, lo, hi)
		if err != nil {
			return err
		}
		fmt.Println(plan)
		return nil
	}
	pts, qs, err := cl.Range(ctx, lo, hi)
	if err != nil {
		return err
	}
	if verbose {
		for _, p := range pts {
			fmt.Printf("  %d (%d, %d)\n", p.ID, p.Coords[0], p.Coords[1])
		}
	}
	fmt.Printf("results: %d points\n", qs.Results)
	fmt.Printf("data pages accessed: %d\n", qs.DataPages)
	fmt.Printf("random accesses (seeks): %d, elements/skips: %d\n", qs.Seeks, qs.Elements)
	printTrace(cl, trace)
	return nil
}

// printTrace prints the server-side timing breakdown, trace ID, and
// span tree of the last traced request. The trace ID is the handle
// for the rest of the cluster's observability: grep it in the router
// and shard logs, or look the request up at /debug/traces.
func printTrace(cl *client.Conn, trace bool) {
	if !trace {
		return
	}
	t := cl.LastTiming()
	if t.Total == 0 {
		fmt.Println("server sent no timing breakdown (pre-1.1 server?)")
		return
	}
	fmt.Printf("server timing: total %v = queue %v + plan %v + exec %v + stream %v\n",
		t.Total, t.Queue, t.Plan, t.Exec, t.Stream)
	if id := cl.LastTraceID(); id != 0 {
		fmt.Printf("trace id: %s\n", probe.TraceIDString(id))
	}
	if tree := cl.LastTrace(); tree != "" {
		fmt.Print("server trace:\n" + indent(tree, "  "))
	}
}

// indent prefixes every non-empty line of s.
func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n") + "\n"
}

// parseBounds parses XLO XHI YLO YHI into box corners.
func parseBounds(args []string) (lo, hi []uint32, err error) {
	if len(args) != 4 {
		return nil, nil, fmt.Errorf("expected XLO XHI YLO YHI, got %d args", len(args))
	}
	vals := make([]uint32, 4)
	for i, a := range args {
		v, err := strconv.ParseUint(a, 10, 32)
		if err != nil {
			return nil, nil, fmt.Errorf("bad bound %q: %v", a, err)
		}
		vals[i] = uint32(v)
	}
	return []uint32{vals[0], vals[2]}, []uint32{vals[1], vals[3]}, nil
}

func runRange(db *probe.DB, g probe.Grid, args []string) ([]probe.Point, probe.QueryStats, error) {
	lo, hi, err := parseBounds(args)
	if err != nil {
		return nil, probe.QueryStats{}, err
	}
	box, err := probe.NewBox(lo, hi)
	if err != nil {
		return nil, probe.QueryStats{}, err
	}
	if !g.Valid(box.Hi) {
		return nil, probe.QueryStats{}, fmt.Errorf("box %v reaches outside grid side %d", box, g.Side())
	}
	if err := db.DropCaches(); err != nil {
		return nil, probe.QueryStats{}, err
	}
	fmt.Printf("range query %v\n", box)
	return db.RangeSearch(box)
}

func runPartial(db *probe.DB, spec string) ([]probe.Point, probe.QueryStats, error) {
	parts := strings.SplitN(spec, "=", 2)
	if len(parts) != 2 {
		return nil, probe.QueryStats{}, fmt.Errorf("bad -partial %q, want x=V or y=V", spec)
	}
	v, err := strconv.ParseUint(parts[1], 10, 32)
	if err != nil {
		return nil, probe.QueryStats{}, fmt.Errorf("bad value %q: %v", parts[1], err)
	}
	restricted := []bool{false, false}
	value := []uint32{0, 0}
	switch parts[0] {
	case "x":
		restricted[0], value[0] = true, uint32(v)
	case "y":
		restricted[1], value[1] = true, uint32(v)
	default:
		return nil, probe.QueryStats{}, fmt.Errorf("bad dimension %q", parts[0])
	}
	if err := db.DropCaches(); err != nil {
		return nil, probe.QueryStats{}, err
	}
	fmt.Printf("partial match %s\n", spec)
	return db.PartialMatch(restricted, value)
}

func loadPoints(g probe.Grid, file, dist string, n int, seed int64) ([]probe.Point, error) {
	if file != "" {
		return readCSV(g, file)
	}
	switch dist {
	case "uniform":
		return workload.Uniform(g, n, seed), nil
	case "clustered":
		return workload.Clustered(g, 50, n/50, float64(g.Side())/80, seed), nil
	case "diagonal":
		return workload.Diagonal(g, n, float64(g.Side())/256, seed), nil
	}
	return nil, fmt.Errorf("unknown distribution %q", dist)
}

func readCSV(g probe.Grid, path string) ([]probe.Point, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var pts []probe.Point
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) != 3 {
			return nil, fmt.Errorf("%s:%d: want id,x,y", path, line)
		}
		id, err := strconv.ParseUint(strings.TrimSpace(fields[0]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad id: %v", path, line, err)
		}
		x, err := strconv.ParseUint(strings.TrimSpace(fields[1]), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad x: %v", path, line, err)
		}
		y, err := strconv.ParseUint(strings.TrimSpace(fields[2]), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad y: %v", path, line, err)
		}
		if x >= g.Side() || y >= g.Side() {
			return nil, fmt.Errorf("%s:%d: point (%d,%d) outside grid", path, line, x, y)
		}
		pts = append(pts, probe.Pt2(id, uint32(x), uint32(y)))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return pts, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "zquery: %v\n", err)
	os.Exit(1)
}

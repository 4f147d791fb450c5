// Command probed serves a probe spatial database over TCP, speaking
// the wire protocol specified in docs/server.md. It is the network
// face of the library: sessions, admission control, per-request
// cancellation, and a graceful checkpoint-on-drain.
//
// Serve a durable database (created on first run, recovered after):
//
//	probed -db /var/lib/probe/db -addr :7331
//
// Seed a fresh store with uniform points and serve it:
//
//	probed -db /tmp/db -seed-n 100000
//
// SIGTERM or SIGINT drains the server: in-flight requests finish (or
// are cancelled after -drain), the store is checkpointed, and the
// process exits 0. A second signal forces immediate exit.
//
// Other modes:
//
//	probed -check -addr HOST:PORT
//	    Handshake with a running server, print its stats, exit.
//
//	probed -db DB -repl-listen :7431
//	    Additionally ship the physical WAL to read replicas (docs/cluster.md).
//
//	probed -db DB -replica-of PRIMARY:7431
//	    Run as a read-only replica following that primary.
//
//	probed -diff -addr SYS -against REF
//	    Run the differential battery: seed both servers identically,
//	    then compare seeded random statements between SYS (typically a
//	    zrouted coordinator) and REF (a single probed). With -degraded,
//	    typed shard-unavailable answers from SYS are tolerated and
//	    counted instead of failing — the cluster-smoke CI job uses this
//	    to prove partial degradation stays typed after a SIGKILL.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"time"

	"probe"
	"probe/client"
	"probe/internal/battery"
	"probe/internal/daemon"
	"probe/internal/obs"
	"probe/internal/repl"
	"probe/internal/server"
	"probe/internal/workload"
)

// serveConfig is probed's command line: the flags every daemon shares,
// the store and replication settings, and the -check and -diff modes.
type serveConfig struct {
	daemon.Flags
	dbPath                  string
	dims, bits, pool, seedN int
	seed                    int64
	replListen              string // primary: serve WAL shipping here
	replicaOf               string // replica: follow this primary

	check, diff, degraded bool
	against               string
	diffN, diffPoints     int
}

// register declares probed's flags on fs.
func register(fs *flag.FlagSet) *serveConfig {
	o := &serveConfig{}
	o.Register(fs, ":7331", "listen address (serve) or server address (-check, -diff)", 16)
	fs.StringVar(&o.dbPath, "db", "", "durable store path; empty serves an in-memory database")
	fs.IntVar(&o.bits, "bits", 10, "grid resolution in bits per dimension (fresh stores)")
	fs.IntVar(&o.dims, "dims", 2, "grid dimensions (fresh stores)")
	fs.IntVar(&o.pool, "pool", 256, "buffer pool pages")
	fs.IntVar(&o.seedN, "seed-n", 0, "seed a fresh store with this many uniform points")
	fs.Int64Var(&o.seed, "seed", 1986, "seed for -seed-n and -diff-points")
	fs.StringVar(&o.replListen, "repl-listen", "", "serve WAL-shipping replication on this address (requires -db); replicas point -replica-of here")
	fs.StringVar(&o.replicaOf, "replica-of", "", "run as a read replica of the primary's -repl-listen address (requires -db for the local page files)")
	fs.BoolVar(&o.check, "check", false, "validate the serve configuration, then handshake with a running server and print stats")
	fs.BoolVar(&o.diff, "diff", false, "differential battery: compare -addr (system under test, e.g. zrouted) against -against (single-node reference)")
	fs.StringVar(&o.against, "against", "", "diff: address of the single-node reference server")
	fs.IntVar(&o.diffN, "diff-n", 220, "diff: number of battery statements")
	fs.IntVar(&o.diffPoints, "diff-points", 4000, "diff: seed this many identical points into both servers first; 0 skips seeding")
	fs.BoolVar(&o.degraded, "degraded", false, "diff: tolerate (and count) typed shard-unavailable answers from -addr instead of failing")
	return o
}

func main() {
	cfg := register(flag.CommandLine)
	flag.Parse()
	var err error
	switch {
	case cfg.check:
		err = runCheck(*cfg)
	case cfg.diff:
		err = runDiff(cfg.Addr, cfg.against, cfg.diffN, cfg.diffPoints, cfg.seed, cfg.degraded)
	default:
		err = serve(*cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "probed: %v\n", err)
		os.Exit(1)
	}
}

// validateServeConfig rejects serve configurations that would start
// and then misbehave: the shared daemon checks plus the replication
// rules.
func validateServeConfig(cfg serveConfig) error {
	if err := cfg.Check(); err != nil {
		return err
	}
	if cfg.replListen != "" && cfg.dbPath == "" {
		return fmt.Errorf("-repl-listen requires -db: only a durable store ships its WAL")
	}
	if cfg.replicaOf != "" {
		if cfg.dbPath == "" {
			return fmt.Errorf("-replica-of requires -db: the replica keeps its page files at DB.a and DB.b")
		}
		if cfg.replListen != "" {
			return fmt.Errorf("-replica-of and -repl-listen are mutually exclusive: chained replication is not supported")
		}
		if cfg.seedN > 0 {
			return fmt.Errorf("-replica-of and -seed-n are mutually exclusive: a replica's data comes from its primary")
		}
	}
	return nil
}

// openDB opens (or creates and optionally seeds) the served database.
// A fresh database is seeded by a bulk load, which a durable store
// checkpoints as it is created.
func openDB(dbPath string, dims, bits, pool, seedN int, seed int64) (*probe.DB, error) {
	g, err := probe.NewGrid(dims, bits)
	if err != nil {
		return nil, err
	}
	var opts []probe.Option
	opts = append(opts, probe.WithPoolPages(pool))
	fresh := true
	if dbPath != "" {
		if _, err := os.Stat(dbPath); err == nil {
			fresh = false
		}
		opts = append(opts, probe.WithDurability(dbPath))
	}
	seeding := fresh && seedN > 0
	if seeding {
		opts = append(opts, probe.WithBulkLoad(workload.Uniform(g, seedN, seed)))
	}
	db, err := probe.Open(g, opts...)
	if err != nil {
		return nil, err
	}
	if recovered, info := db.Recovered(); recovered {
		fmt.Printf("probed: recovered %s (%d pages replayed), %d points\n",
			dbPath, info.PagesRecovered, db.Len())
	}
	if seeding {
		fmt.Printf("probed: seeded %d uniform points\n", seedN)
	}
	return db, nil
}

func serve(cfg serveConfig) error {
	if err := validateServeConfig(cfg); err != nil {
		return err
	}
	sc := cfg.Session()

	// Replica mode: the database comes from the primary, not from
	// openDB. The replica's lag gauges share the server's registry so
	// STATS exposes them (server.repl.caught_up) to the router's
	// health prober, and /readyz reports 503 while the replica lags.
	var (
		db        *probe.DB
		rep       *repl.Replica
		repCancel context.CancelFunc
		prim      *repl.Primary
	)
	if cfg.replicaOf != "" {
		sc.ReadOnly = true
		sc.Metrics = obs.NewRegistry()
		g, err := probe.NewGrid(cfg.dims, cfg.bits)
		if err != nil {
			return err
		}
		rep, err = repl.NewReplica(repl.ReplicaConfig{
			Primary:  cfg.replicaOf,
			Grid:     g,
			PathA:    cfg.dbPath + ".a",
			PathB:    cfg.dbPath + ".b",
			Registry: sc.Metrics,
			Logger:   sc.Logger,
			OpenOpts: []probe.Option{probe.WithPoolPages(cfg.pool)},
		})
		if err != nil {
			return err
		}
		var ctx context.Context
		ctx, repCancel = context.WithCancel(context.Background())
		defer repCancel()
		go rep.Run(ctx)
		fmt.Printf("probed: replica of %s: waiting for initial sync\n", cfg.replicaOf)
		wctx, wcancel := context.WithTimeout(ctx, 60*time.Second)
		db, err = rep.WaitReady(wctx)
		wcancel()
		if err != nil {
			rep.Close()
			return fmt.Errorf("replica initial sync: %w", err)
		}
	} else {
		var err error
		db, err = openDB(cfg.dbPath, cfg.dims, cfg.bits, cfg.pool, cfg.seedN, cfg.seed)
		if err != nil {
			return err
		}
	}

	srv := server.New(db, sc)
	mode := "serving"
	if rep != nil {
		rep.SetSwap(srv.SwapDB)
		srv.SetReadyCheck(rep.ReadyErr)
		mode = "serving (read-only replica)"
	}
	// stop ends shipping or applying before the drain's final
	// checkpoint; it runs on every way out from here on.
	var rln net.Listener
	stop := func() {
		if prim != nil {
			prim.Close()
		}
		if rln != nil {
			rln.Close() // prim.Serve may not have taken it over yet
		}
		if rep != nil {
			repCancel()
			rep.Close()
		}
	}
	// Primary mode: ship every checkpoint's WAL segment to subscribed
	// replicas on a dedicated listener.
	var notes []string
	if cfg.replListen != "" {
		var err error
		if prim, err = repl.NewPrimary(db, repl.PrimaryConfig{Logger: sc.Logger}); err == nil {
			rln, err = net.Listen("tcp", cfg.replListen)
		}
		if err != nil {
			stop()
			return errors.Join(err, srv.Shutdown(context.Background()))
		}
		go prim.Serve(rln)
		notes = append(notes, fmt.Sprintf("shipping WAL segments on %s", rln.Addr()))
	}
	return daemon.Run("probed", fmt.Sprintf("%s %d points", mode, db.Len()), cfg.Flags, srv, stop, notes...)
}

func runCheck(cfg serveConfig) error {
	if err := validateServeConfig(cfg); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	fmt.Println("probed: serve configuration ok")
	cl, err := client.Dial(cfg.Addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	fmt.Printf("probed: %s speaks protocol, grid bits %v\n", cfg.Addr, cl.GridBits())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	stats, err := cl.Stats(ctx)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-48s %d\n", name, stats[name])
	}
	return nil
}

// runDiff is the CLI face of the differential battery: the same
// generator the in-process tests use (internal/battery), pointed at
// two live servers. The system under test is typically a zrouted
// coordinator and the reference a single probed; identical seeding
// plus identical statements must produce identical answers, which is
// the cluster's "indistinguishable from a single node" contract.
func runDiff(addr, against string, n, points int, seed int64, degraded bool) error {
	if against == "" {
		return fmt.Errorf("-diff requires -against ADDR (the single-node reference)")
	}
	sys, err := client.Dial(addr)
	if err != nil {
		return fmt.Errorf("system under test %s: %w", addr, err)
	}
	defer sys.Close()
	ref, err := client.Dial(against)
	if err != nil {
		return fmt.Errorf("reference %s: %w", against, err)
	}
	defer ref.Close()
	bits := sys.GridBits()
	if rb := ref.GridBits(); fmt.Sprint(rb) != fmt.Sprint(bits) {
		return fmt.Errorf("grid mismatch: %s serves %v, %s serves %v", addr, bits, against, rb)
	}
	ctx := context.Background()

	if points > 0 {
		for _, b := range bits[1:] {
			if b != bits[0] {
				return fmt.Errorf("diff seeding needs a uniform grid, got bits %v", bits)
			}
		}
		g, err := probe.NewGrid(len(bits), bits[0])
		if err != nil {
			return err
		}
		pts := workload.Uniform(g, points, seed)
		for lo := 0; lo < len(pts); lo += 500 {
			hi := min(lo+500, len(pts))
			if _, err := sys.Insert(ctx, pts[lo:hi]); err != nil {
				return fmt.Errorf("seeding %s: %w", addr, err)
			}
			if _, err := ref.Insert(ctx, pts[lo:hi]); err != nil {
				return fmt.Errorf("seeding %s: %w", against, err)
			}
		}
		// Checkpointing after the seed ships WAL segments to any read
		// replicas behind the coordinator, so they can catch up and
		// serve these rows during failover.
		if _, err := sys.Checkpoint(ctx); err != nil {
			return fmt.Errorf("checkpoint %s: %w", addr, err)
		}
		if _, err := ref.Checkpoint(ctx); err != nil {
			return fmt.Errorf("checkpoint %s: %w", against, err)
		}
		fmt.Printf("probed: diff seeded %d points into both servers\n", points)
	}

	matched, unavailable := 0, 0
	for i := 0; i < n; i++ {
		qseed := int64(1000 + i)
		sql, ordered := battery.GenQuery(rand.New(rand.NewSource(qseed)))
		want, werr := ref.Query(ctx, sql)
		if werr != nil {
			return fmt.Errorf("seed %d: reference error: %v\n  query: %s", qseed, werr, sql)
		}
		got, gerr := sys.Query(ctx, sql)
		if gerr != nil {
			if degraded && errors.Is(gerr, client.ErrUnavailable) {
				unavailable++
				continue
			}
			return fmt.Errorf("seed %d: system under test error: %v\n  query: %s", qseed, gerr, sql)
		}
		if d := battery.Diff(
			battery.Result{Columns: got.Columns, Rows: got.Rows},
			battery.Result{Columns: want.Columns, Rows: want.Rows},
			ordered,
		); d != "" {
			return fmt.Errorf("seed %d: %s vs %s %s\n  query: %s", qseed, addr, against, d, sql)
		}
		matched++
	}
	fmt.Printf("probed: diff %s vs %s: statements=%d matched=%d unavailable=%d\n",
		addr, against, n, matched, unavailable)
	return nil
}

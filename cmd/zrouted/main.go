// Command zrouted is the z-range cluster coordinator (docs/cluster.md):
// it speaks the probed wire protocol on the front and scatter-gathers
// every request across the shards named in its z-range shard map, so a
// client sees one database that happens to be sharded.
//
// Route a three-shard cluster, each shard a running probed:
//
//	zrouted -shards host1:7331,host2:7331,host3:7331 -addr :7341
//
// Replicas (probed -replica-of) attach per shard, ';'-separated groups
// aligned with -shards, ','-separated addresses within a group:
//
//	zrouted -shards a:7331,b:7331 -replicas a:7332;b:7332,b:7333
//
// A shard map built this way can be frozen to a file (-print-map) and
// served verbatim later (-map), which is how a cluster keeps a stable
// assignment across coordinator restarts:
//
//	zrouted -shards a:7331,b:7331 -print-map > cluster.json
//	zrouted -map cluster.json -addr :7341
//
// SIGTERM or SIGINT drains: in-flight scatters finish (or are
// cancelled after -drain), backend pools close, and the process exits
// 0. A second signal forces immediate exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"probe/internal/router"
)

func main() {
	var (
		addr     = flag.String("addr", ":7341", "front-side listen address")
		admin    = flag.String("admin", "", "admin HTTP address serving /metrics, /debug/pprof, /healthz, /readyz; empty disables")
		shards   = flag.String("shards", "", "comma-separated shard primary addresses (builds an even z-range map)")
		replicas = flag.String("replicas", "", "per-shard replica groups aligned with -shards: groups ';'-separated, addresses ','-separated")
		mapFile  = flag.String("map", "", "shard map JSON file (instead of -shards)")
		prefix   = flag.Int("prefix-bits", 0, "z-prefix slots = 2^bits; 0 picks a default for the shard count")
		printMap = flag.Bool("print-map", false, "print the shard map JSON and exit")
		check    = flag.Bool("check", false, "validate the map, handshake with the cluster, and exit")
		maxIn    = flag.Int("max-inflight", 64, "admission control: max concurrently executing front-side requests")
		batch    = flag.Int("batch", 512, "results per streamed batch frame")
		bTimeout = flag.Duration("backend-timeout", 30*time.Second, "a shard call exceeding this counts as unavailable")
		probeInt = flag.Duration("probe-interval", time.Second, "health re-probe cadence for down shards and replica lag")
		drain    = flag.Duration("drain", 5*time.Second, "graceful drain timeout on shutdown")
		startT   = flag.Duration("start-timeout", 30*time.Second, "how long to wait for the first reachable shard at startup")
		slowQ    = flag.Duration("slow-query", -1, "log requests at/above this latency at warn with their fan-out span tree; 0 logs every request; negative disables")
		logEv    = flag.Int("log-requests", 0, "log every Nth request at info; 0 disables")
		traceBuf = flag.Int("trace-buffer", 64, "capacity of the /debug/traces ring of recent traced, slow, and sampled requests")
	)
	flag.Parse()
	if err := run(*addr, *admin, *shards, *replicas, *mapFile, *prefix,
		*printMap, *check, *maxIn, *batch, *bTimeout, *probeInt, *drain, *startT,
		*slowQ, *logEv, *traceBuf); err != nil {
		fmt.Fprintf(os.Stderr, "zrouted: %v\n", err)
		os.Exit(1)
	}
}

// validateConfig rejects configurations that would start and then
// misbehave, mirroring probed -check: an admin endpoint colliding with
// the front-side listener, or timeouts and logging thresholds outside
// their meaningful range.
func validateConfig(addr, admin string, bTimeout, slowQuery time.Duration, logEvery int) error {
	if admin != "" {
		ahost, aport, err := net.SplitHostPort(admin)
		if err != nil {
			return fmt.Errorf("bad -admin address %q: %v", admin, err)
		}
		qhost, qport, err := net.SplitHostPort(addr)
		if err != nil {
			return fmt.Errorf("bad -addr address %q: %v", addr, err)
		}
		// A port shared with the front-side listener is a clash when
		// either side binds the wildcard or both name the same host.
		if aport == qport && (ahost == "" || qhost == "" || ahost == qhost) {
			return fmt.Errorf("-admin %s clashes with -addr %s: same port", admin, addr)
		}
	}
	if bTimeout <= 0 {
		return fmt.Errorf("-backend-timeout %s must be positive: a hung shard has to count as unavailable eventually", bTimeout)
	}
	if bTimeout > 24*time.Hour {
		return fmt.Errorf("-backend-timeout %s is not a plausible bound (max 24h)", bTimeout)
	}
	if slowQuery > 24*time.Hour {
		return fmt.Errorf("-slow-query %s is not a plausible threshold (max 24h)", slowQuery)
	}
	if logEvery < 0 {
		return fmt.Errorf("-log-requests %d: the sample interval cannot be negative", logEvery)
	}
	return nil
}

// routerConfig maps the command line onto router.Config, with the
// same slow-query flag convention as probed: the flag's 0 means "log
// every request at warn" (the config's negative), the flag's negative
// means disabled (the config's zero).
func routerConfig(m *router.Map, maxIn, batch int, bTimeout, probeInt, drain time.Duration,
	slowQuery time.Duration, logEvery, traceBuf int) router.Config {
	rc := router.Config{
		Map:            m,
		MaxInflight:    maxIn,
		BatchSize:      batch,
		BackendTimeout: bTimeout,
		ProbeInterval:  probeInt,
		DrainTimeout:   drain,
		TraceBuffer:    traceBuf,
		LogEvery:       logEvery,
	}
	switch {
	case slowQuery == 0:
		rc.SlowQuery = -1
	case slowQuery > 0:
		rc.SlowQuery = slowQuery
	}
	if slowQuery >= 0 || logEvery > 0 {
		rc.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	return rc
}

// loadMap resolves the shard map from -map or -shards/-replicas.
func loadMap(shards, replicas, mapFile string, prefixBits int) (*router.Map, error) {
	switch {
	case mapFile != "" && shards != "":
		return nil, fmt.Errorf("-map and -shards are mutually exclusive")
	case mapFile != "":
		data, err := os.ReadFile(mapFile)
		if err != nil {
			return nil, err
		}
		return router.DecodeMap(data)
	case shards != "":
		primaries := splitNonEmpty(shards, ",")
		var reps [][]string
		if replicas != "" {
			groups := strings.Split(replicas, ";")
			if len(groups) > len(primaries) {
				return nil, fmt.Errorf("-replicas names %d groups for %d shards", len(groups), len(primaries))
			}
			reps = make([][]string, len(primaries))
			for i, g := range groups {
				reps[i] = splitNonEmpty(g, ",")
			}
		}
		if prefixBits == 0 {
			prefixBits = router.DefaultPrefixBits(len(primaries))
		}
		return router.BuildEvenMap(prefixBits, primaries, reps)
	default:
		return nil, fmt.Errorf("no cluster: pass -shards or -map")
	}
}

func splitNonEmpty(s, sep string) []string {
	var out []string
	for _, part := range strings.Split(s, sep) {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func run(addr, admin, shards, replicas, mapFile string, prefixBits int,
	printMap, check bool, maxIn, batch int, bTimeout, probeInt, drain, startT time.Duration,
	slowQuery time.Duration, logEvery, traceBuf int) error {
	m, err := loadMap(shards, replicas, mapFile, prefixBits)
	if err != nil {
		return err
	}
	if printMap {
		enc, err := m.Encode()
		if err != nil {
			return err
		}
		os.Stdout.Write(enc)
		return nil
	}
	if err := validateConfig(addr, admin, bTimeout, slowQuery, logEvery); err != nil {
		if check {
			return fmt.Errorf("config: %w", err)
		}
		return err
	}
	if check {
		fmt.Println("zrouted: configuration ok")
	}

	r, err := router.New(routerConfig(m, maxIn, batch, bTimeout, probeInt, drain,
		slowQuery, logEvery, traceBuf))
	if err != nil {
		return err
	}
	startCtx, cancel := context.WithTimeout(context.Background(), startT)
	err = r.Start(startCtx)
	cancel()
	if err != nil {
		return err
	}
	if check {
		defer r.Shutdown(context.Background())
		r.ProbeNow()
		g := r.Grid()
		fmt.Printf("zrouted: %d shards, grid %dd, %d total bits\n", len(m.Shards), g.Dims(), g.TotalBits())
		if err := r.Ready(); err != nil {
			return err
		}
		fmt.Println("zrouted: cluster ready")
		return nil
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		r.Shutdown(context.Background())
		return err
	}
	fmt.Printf("zrouted: routing %d shards on %s (prefix bits %d, max-inflight %d)\n",
		len(m.Shards), ln.Addr(), m.PrefixBits, maxIn)

	// As on probed, the admin endpoint outlives the query listener so
	// /readyz reports the drain instead of vanishing.
	var adminSrv *http.Server
	if admin != "" {
		aln, err := net.Listen("tcp", admin)
		if err != nil {
			ln.Close()
			r.Shutdown(context.Background())
			return err
		}
		adminSrv = &http.Server{Handler: r.AdminHandler()}
		go adminSrv.Serve(aln)
		fmt.Printf("zrouted: admin endpoint on http://%s/metrics\n", aln.Addr())
	}
	closeAdmin := func() {
		if adminSrv != nil {
			adminSrv.Close()
		}
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	errCh := make(chan error, 1)
	go func() { errCh <- r.Serve(ln) }()

	select {
	case sig := <-sigs:
		fmt.Printf("zrouted: %v: draining (timeout %s)\n", sig, drain)
		done := make(chan error, 1)
		go func() { done <- r.Shutdown(context.Background()) }()
		select {
		case err := <-done:
			closeAdmin()
			if err != nil {
				return fmt.Errorf("drain: %w", err)
			}
			fmt.Println("zrouted: drained, closed")
			return nil
		case sig := <-sigs:
			closeAdmin()
			return fmt.Errorf("%v during drain: exiting hard", sig)
		}
	case err := <-errCh:
		closeAdmin()
		r.Shutdown(context.Background())
		return err
	}
}

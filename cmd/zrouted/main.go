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
	"os"
	"strings"
	"time"

	"probe/internal/daemon"
	"probe/internal/router"
)

// options is zrouted's command line.
type options struct {
	daemon.Flags
	shards, replicas, mapFile              string
	prefixBits                             int
	printMap, check                        bool
	backendTimeout, probeInt, startTimeout time.Duration
}

// register declares zrouted's flags on fs.
func register(fs *flag.FlagSet) *options {
	o := &options{}
	o.Register(fs, ":7341", "front-side listen address", 64)
	fs.StringVar(&o.shards, "shards", "", "comma-separated shard primary addresses (builds an even z-range map)")
	fs.StringVar(&o.replicas, "replicas", "", "per-shard replica groups aligned with -shards: groups ';'-separated, addresses ','-separated")
	fs.StringVar(&o.mapFile, "map", "", "shard map JSON file (instead of -shards)")
	fs.IntVar(&o.prefixBits, "prefix-bits", 0, "z-prefix slots = 2^bits; 0 picks a default for the shard count")
	fs.BoolVar(&o.printMap, "print-map", false, "print the shard map JSON and exit")
	fs.BoolVar(&o.check, "check", false, "validate the map, handshake with the cluster, and exit")
	fs.DurationVar(&o.backendTimeout, "backend-timeout", 30*time.Second, "a shard call exceeding this counts as unavailable")
	fs.DurationVar(&o.probeInt, "probe-interval", time.Second, "health re-probe cadence for down shards and replica lag")
	fs.DurationVar(&o.startTimeout, "start-timeout", 30*time.Second, "how long to wait for the first reachable shard at startup")
	return o
}

func main() {
	o := register(flag.CommandLine)
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "zrouted: %v\n", err)
		os.Exit(1)
	}
}

// validateConfig rejects configurations that would start and then
// misbehave: the shared daemon checks (probed -check parity) plus a
// backend timeout outside its meaningful range.
func validateConfig(f daemon.Flags, bTimeout time.Duration) error {
	if err := f.Check(); err != nil {
		return err
	}
	if bTimeout <= 0 {
		return fmt.Errorf("-backend-timeout %s must be positive: a hung shard has to count as unavailable eventually", bTimeout)
	}
	if bTimeout > 24*time.Hour {
		return fmt.Errorf("-backend-timeout %s is not a plausible bound (max 24h)", bTimeout)
	}
	return nil
}

// routerConfig maps the command line onto router.Config; the shared
// settings come from the daemon's one flag-to-config mapping.
func routerConfig(m *router.Map, f daemon.Flags, bTimeout, probeInt time.Duration) router.Config {
	sc := f.Session()
	return router.Config{
		Map:            m,
		MaxInflight:    sc.MaxInflight,
		BatchSize:      sc.BatchSize,
		BackendTimeout: bTimeout,
		ProbeInterval:  probeInt,
		DrainTimeout:   sc.DrainTimeout,
		Logger:         sc.Logger,
		SlowQuery:      sc.SlowQuery,
		LogEvery:       sc.LogEvery,
		TraceBuffer:    sc.TraceBuffer,
	}
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

func run(o *options) error {
	m, err := loadMap(o.shards, o.replicas, o.mapFile, o.prefixBits)
	if err != nil {
		return err
	}
	if o.printMap {
		enc, err := m.Encode()
		if err != nil {
			return err
		}
		os.Stdout.Write(enc)
		return nil
	}
	if err := validateConfig(o.Flags, o.backendTimeout); err != nil {
		if o.check {
			return fmt.Errorf("config: %w", err)
		}
		return err
	}
	if o.check {
		fmt.Println("zrouted: configuration ok")
	}

	r, err := router.New(routerConfig(m, o.Flags, o.backendTimeout, o.probeInt))
	if err != nil {
		return err
	}
	startCtx, cancel := context.WithTimeout(context.Background(), o.startTimeout)
	err = r.Start(startCtx)
	cancel()
	if err != nil {
		return err
	}
	if o.check {
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
	mode := fmt.Sprintf("routing %d shards (prefix bits %d)", len(m.Shards), m.PrefixBits)
	return daemon.Run("zrouted", mode, o.Flags, r, nil)
}

package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"probe"
	"probe/client"
	"probe/internal/router"
)

// config is what one run needs to know about its surroundings.
type config struct {
	binDir  string // holds probed and zrouted
	workDir string // scratch space of this process, removed at exit
	outDir  string // result and trace files
	sz      sizes
}

// env is one set-up system under test: the stores on disk, the
// processes serving them and the callers' targets.
type env struct {
	cfg     config
	w       workloadSpec
	grid    probe.Grid
	static  []probe.Point
	dir     string
	stores  []string // page file paths
	shards  []*child
	front   *child    // zrouted, cluster only
	db      *probe.DB // embedded only
	targets []target
	ctx     context.Context
}

const shardCount = 3

// setUp generates the data from the seed, bulk-loads it into durable
// stores, starts the serving processes and connects. Its duration plus
// the warm-up's is the setup_s metric.
func setUp(ctx context.Context, cfg config, w workloadSpec, seed int64) (*env, error) {
	e := &env{cfg: cfg, w: w, grid: benchGrid(), ctx: ctx}
	e.static = genPoints(e.grid, cfg.sz.Points, seed)
	dir, err := os.MkdirTemp(cfg.workDir, w.Name+"-")
	if err != nil {
		return nil, err
	}
	e.dir = dir
	ok := false
	defer func() {
		if !ok {
			e.tearDown()
		}
	}()

	parts := [][]probe.Point{e.static}
	if w.Kind == targetCluster {
		if parts, err = e.splitByShard(); err != nil {
			return nil, err
		}
	}
	for i, part := range parts {
		path := filepath.Join(dir, "db"+strconv.Itoa(i))
		db, err := probe.Open(e.grid, probe.WithDurability(path), probe.WithBulkLoad(part))
		if err != nil {
			return nil, fmt.Errorf("bulk load: %w", err)
		}
		if err := db.Close(); err != nil {
			return nil, fmt.Errorf("bulk load: %w", err)
		}
		e.stores = append(e.stores, path)
	}
	if err := e.serve(); err != nil {
		return nil, err
	}
	// One full COUNT(*) checks the load and pulls the tree into a pool
	// large enough to hold it.
	if n, err := e.countAll(); err != nil || n != len(e.static) {
		return nil, fmt.Errorf("set-up COUNT(*) = %d, %v; want %d", n, err, len(e.static))
	}
	ok = true
	return e, nil
}

var fullCountSQL = fmt.Sprintf("SELECT COUNT(*) FROM points WHERE INTERSECTS(BOX(0,%d,0,%d))", 1<<gridBits-1, 1<<gridBits-1)

// countAll counts every stored point through the front door.
func (e *env) countAll() (int, error) {
	full := op{kind: opQuery, count: true, text: fullCountSQL}
	got, err := e.targets[0].do(&full, false)
	return got.n, err
}

// openEmbedded opens the store in this process, as embed_read reads it.
func (e *env) openEmbedded() error {
	db, err := probe.Open(e.grid, probe.WithDurability(e.stores[0]), probe.WithPoolPages(e.w.Pool))
	if err != nil {
		return err
	}
	e.db = db
	e.targets = []target{&embedTarget{db: db, ctx: e.ctx}}
	return nil
}

// splitByShard partitions the points by the even z-range map zrouted
// builds from the same shard count.
func (e *env) splitByShard() ([][]probe.Point, error) {
	names := make([]string, shardCount)
	for i := range names {
		names[i] = "shard" + strconv.Itoa(i)
	}
	m, err := router.BuildEvenMap(router.DefaultPrefixBits(shardCount), names, nil)
	if err != nil {
		return nil, err
	}
	parts := make([][]probe.Point, shardCount)
	for _, p := range e.static {
		s := m.OwnerOf(e.grid.ShuffleKey(p.Coords))
		parts[s] = append(parts[s], p)
	}
	return parts, nil
}

func (e *env) logPath(name string) string { return filepath.Join(e.dir, name+".log") }

// serve opens the stores the way the workload reads them and creates
// one target per caller.
func (e *env) serve() error {
	pool := strconv.Itoa(e.w.Pool)
	if e.w.Kind == targetEmbed {
		return e.openEmbedded()
	}
	for i, path := range e.stores {
		name := "shard" + strconv.Itoa(i)
		c, err := startChild(name, filepath.Join(e.cfg.binDir, "probed"), "127.0.0.1:0", e.logPath(name),
			"-db", path, "-bits", strconv.Itoa(gridBits), "-pool", pool)
		if err != nil {
			return err
		}
		e.shards = append(e.shards, c)
	}
	if e.w.Kind == targetCluster {
		addrs := make([]string, len(e.shards))
		for i, c := range e.shards {
			addrs[i] = c.addr
		}
		// A short probe interval, so a restarted shard is noticed soon:
		// recovery_s should measure the restart, not the prober's sleep.
		c, err := startChild("zrouted", filepath.Join(e.cfg.binDir, "zrouted"), "127.0.0.1:0", e.logPath("zrouted"),
			"-shards", strings.Join(addrs, ","), "-probe-interval", "20ms")
		if err != nil {
			return err
		}
		e.front = c
	}
	return e.dial()
}

func (e *env) frontAddr() string {
	if e.front != nil {
		return e.front.addr
	}
	return e.shards[0].addr
}

// dial connects the callers; the handshake is the readiness check.
func (e *env) dial() error {
	for _, t := range e.targets {
		_ = t.close() // connections to a killed server are dead anyway
	}
	e.targets = nil
	for i := 0; i < e.w.Conns; i++ {
		c, err := client.Dial(e.frontAddr())
		if err != nil {
			return fmt.Errorf("dial %s: %w", e.frontAddr(), err)
		}
		e.targets = append(e.targets, &connTarget{c: c, ctx: e.ctx})
	}
	return nil
}

// children lists the serving processes.
func (e *env) children() []*child {
	if e.front != nil {
		return append([]*child{e.front}, e.shards...)
	}
	return e.shards
}

// diskBytes sums the page files and their write-ahead logs.
func (e *env) diskBytes() (int64, error) {
	var total int64
	for _, path := range e.stores {
		for _, p := range []string{path, path + ".wal"} {
			fi, err := os.Stat(p)
			if err != nil {
				return 0, err
			}
			total += fi.Size()
		}
	}
	return total, nil
}

// crashAndRecover kills every database process without warning (the
// embedded path drops its handle without closing it), starts them
// again on the same stores and addresses, and returns the time until
// a full COUNT(*) through the front door gives want again.
//
// SIGKILL leaves the operating system's page cache intact, so this is
// the weak form of the durability check: it proves an acked
// checkpoint survives the process, not a power cut. The repository's
// faultfs crash schedules are the strong form.
func (e *env) crashAndRecover(want int) (time.Duration, error) {
	t0 := time.Now()
	if e.w.Kind == targetEmbed {
		// No Close, so no final checkpoint: what the next Open finds is
		// what a killed process would have left.
		if err := e.db.CloseReadOnly(); err != nil {
			return 0, err
		}
		if err := e.openEmbedded(); err != nil {
			return 0, fmt.Errorf("reopen: %w", err)
		}
		if got, err := e.countAll(); err != nil || got != want {
			return 0, fmt.Errorf("after reopen COUNT(*) = %d, %v; want %d", got, err, want)
		}
		return time.Since(t0), nil
	}
	for i, c := range e.shards {
		c.kill()
		nc, err := c.restart(e.logPath(c.name))
		if err != nil {
			return 0, err
		}
		e.shards[i] = nc
	}
	// Through a router the first attempts may find a shard still marked
	// down; poll until the cluster answers.
	deadline := time.Now().Add(startTimeout)
	for {
		err := e.dial()
		if err == nil {
			var got int
			if got, err = e.countAll(); err == nil {
				if got != want {
					return 0, fmt.Errorf("after restart COUNT(*) = %d, want %d", got, want)
				}
				return time.Since(t0), nil
			}
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("no answer %s after the restart: %w", startTimeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// tearDown stops the processes and removes the stores.
func (e *env) tearDown() {
	for _, t := range e.targets {
		_ = t.close()
	}
	e.targets = nil
	if e.db != nil {
		_ = e.db.CloseReadOnly() // the files are about to be deleted
		e.db = nil
	}
	for _, c := range e.children() {
		c.kill()
	}
	e.shards, e.front = nil, nil
	_ = os.RemoveAll(e.dir)
}

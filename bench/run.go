package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// result is the outcome of one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Conflicts int                `json:"tx_conflicts"`
	Metrics   map[string]float64 `json:"metrics"`
	Problems  []string           `json:"problems,omitempty"`
	Budget    []budgetRow        `json:"budget,omitempty"`
}

// set stores candidate metrics under the names they are reported by.
// An untraced run keeps every one of them: the driver's line carries
// those with a bound, the printed list and the A/A check the demoted
// ones too, because tracing off and the full measuring time is where
// they are measured best. A traced run keeps the demoted ones, which
// its line must carry as per-layer metrics.
func (r *result) set(m map[string]float64) {
	for _, c := range candidates {
		if v, ok := m[c.Name]; ok && (c.Demoted || !r.Traced) {
			r.Metrics[c.reportName()] = v
		}
	}
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// The share of the measuring time each phase gets.
const (
	closedShare = 0.8  // untraced run: closed loop; the rest is the open loop
	plainShare  = 0.3  // traced run: untraced closed loop, the baseline
	soloShare   = 0.05 // traced run: untraced closed loop of one caller, the budget's baseline
	tracedShare = 0.2  // traced run: traced closed loop, half all callers at once, half one by one
	lateShare   = 0.1  // traced run: open loop, for the generator's lateness
	// the remaining 0.35 of a traced run goes to the drills
)

func share(seconds, s float64) time.Duration {
	return time.Duration(seconds * s * float64(time.Second))
}

// runWorkload sets the workload up, measures it for the given number
// of seconds, verifies every answer it kept and the restart, and
// returns the end-to-end metrics (trace off) or the per-layer metrics
// (trace on).
func runWorkload(ctx context.Context, cfg config, w workloadSpec, seed int64, seconds float64, trace bool) (*result, error) {
	res := &result{Workload: w.Name, Seed: seed, Traced: trace, Metrics: make(map[string]float64)}

	// Set up several times, so that one slow process start does not
	// decide setup_s. The last set-up is the one measured.
	var (
		e       *env
		callers []*caller
		setups  []float64
	)
	for i := 0; i < cfg.sz.Setups; i++ {
		if e != nil {
			e.tearDown()
		}
		t0 := time.Now()
		var err error
		if e, callers, err = setUpWarm(ctx, cfg, w, seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { e.tearDown() }()
	warm := 0
	for _, c := range callers {
		warm += c.attempted
	}

	res.set(map[string]float64{"setup_s": median(setups)})
	var pass *tracedPass
	if trace {
		var err error
		if pass, err = e.measureTraced(res, callers, seconds); err != nil {
			return nil, err
		}
	} else {
		e.measureEndToEnd(res, callers, seconds)
	}
	e.crashAndVerify(ctx, res, callers)
	res.Attempted -= warm
	res.Correct = res.Failed == 0 && len(res.Problems) == 0

	if trace {
		static := e.static
		e.tearDown() // the drills run alone
		drilled, err := runDrills(cfg, w, seed, static, share(seconds, 1-plainShare-soloShare-tracedShare-lateShare))
		if err != nil {
			return nil, fmt.Errorf("drills: %w", err)
		}
		for k, v := range drilled {
			res.Metrics[k] = v
		}
		res.Metrics["client.tx_conflicts"] = float64(res.Conflicts)
		tracedLayers(res, w, pass.samples)
		res.Budget = budget(res, pass.samples, pass.plainRangeP50*1e3, pass.soloRangeP50*1e3)
		for _, m := range perLayer {
			if _, ok := res.Metrics[m.Name]; !ok {
				res.Metrics[m.Name] = 0 // the workload bypasses this layer
			}
		}
		if err := pass.tr.write(filepath.Join(cfg.outDir, w.Name+".trace.json")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// setUpWarm is one complete set-up: stores, processes, connections and
// the fixed-count warm-up of every caller. Its duration is setup_s.
func setUpWarm(ctx context.Context, cfg config, w workloadSpec, seed int64) (*env, []*caller, error) {
	e, err := setUp(ctx, cfg, w, seed)
	if err != nil {
		return nil, nil, err
	}
	var callers []*caller
	for j, t := range e.targets {
		c := newCaller(j, newOpGen(seed, j, w, e.static), t)
		for k := 0; k < cfg.sz.WarmOps; k++ {
			c.step(false, time.Time{})
		}
		if c.firstErr != nil {
			e.tearDown()
			return nil, nil, fmt.Errorf("warm-up: %w", c.firstErr)
		}
		callers = append(callers, c)
	}
	return e, callers, nil
}

// measureEndToEnd is the untraced run's measuring time: the closed
// loop, then the open loop. Before it, outside the measuring time, the
// fixed-count operations that disk_bytes_per_point is taken after.
//
// The closed loop starts with a fixed number of operations, over which
// allocs_per_op is taken, and goes on until its share of the time is
// up (for at least a quarter of it, if the count took longer): the
// allocations of an operation depend on the rows it returns, and those
// on how much the run has inserted before it, so over a time-bound loop
// a slower machine reads fewer allocations per operation. The timings
// are taken over both parts.
func (e *env) measureEndToEnd(res *result, callers []*caller, seconds float64) {
	perPoint, err := e.diskBytesPerPoint(callers)
	if err != nil {
		res.problem("disk size: %v", err)
	}
	d := share(seconds, closedShare)
	ph := e.countedLoop(callers, e.w.AllocOps/e.cfg.sz.AllocDiv/len(callers))
	allocs := float64(ph.mallocs) / float64(ph.ops)
	ph.join(e.closedLoop(callers, max(d-ph.wall, d/4), false))
	open := e.openLoop(callers, share(seconds, 1-closedShare), e.w.Rate)
	m := clientMetrics(&ph, &open)
	m["disk_bytes_per_point"], m["allocs_per_op"] = perPoint, allocs
	res.set(m)
}

// diskBytesPerPoint lets the first caller run a fixed number of
// operations (none on a workload that writes nothing), takes a
// checkpoint, and returns (page files + WAL) / live points. The count
// is fixed because the page file stops growing within the first few
// flush cycles while the live points go on growing with every insert:
// taken at the end of a run of fixed duration, the ratio would fall
// with the number of operations the run got through, and so with the
// speed of the machine. One caller, because two interleave differently
// from run to run and leave files that differ by 2-3 %.
func (e *env) diskBytesPerPoint(callers []*caller) (float64, error) {
	if e.w.writes() {
		for i := 0; i < e.cfg.sz.DiskOps; i++ {
			callers[0].step(false, time.Time{})
		}
	}
	if _, err := callers[0].target.do(&op{kind: opCheckpoint}, false); err != nil {
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	bytes, err := e.diskBytes()
	if err != nil {
		return 0, err
	}
	live := len(e.static)
	for _, c := range callers {
		live += len(c.inserted) - len(c.deleted)
	}
	return float64(bytes) / float64(live), nil
}

// clientMetrics are the numbers the callers of an untraced closed loop
// and of the open loop after it saw, over the whole of each phase.
func clientMetrics(closed, open *phase) map[string]float64 {
	m := closed.timings()
	m["sched_p50_ms"] = open.latency(numKinds, 0.5, opSched)
	m["sched_p95_ms"] = open.latency(numKinds, 0.95, opSched)
	return m
}

// tracedPass is what the traced run's measuring time leaves for the
// layer split.
type tracedPass struct {
	tr            *tracer
	samples       []traceSample // of the one-caller-at-a-time phase
	plainRangeP50 float64       // ms, untraced, all callers, same run
	soloRangeP50  float64       // ms, untraced, one caller
}

// measureTraced is the traced run's measuring time: an untraced closed
// loop as the baseline, the same with one caller, the traced closed
// loops, what needs a live connection, and a short open loop.
func (e *env) measureTraced(res *result, callers []*caller, seconds float64) (*tracedPass, error) {
	plain := e.closedLoop(callers, share(seconds, plainShare), false)
	clientLatencies(res, &plain)
	pass := &tracedPass{tr: newTracer(), plainRangeP50: plain.latency(opRange, 0.5, opMs)}
	// The layer split below times one caller at a time, so the budget
	// needs the untraced latency of one caller too: what a request costs
	// beside a second caller is a row of its own.
	pass.soloRangeP50 = pass.plainRangeP50
	if len(callers) > 1 {
		solo := e.closedLoop(callers[:1], share(seconds, soloShare), false)
		pass.soloRangeP50 = solo.latency(opRange, 0.5, opMs)
	}
	for _, c := range callers {
		c.tr = pass.tr
	}
	// First every caller traced at once, which is what turning tracing
	// on costs. Then one caller at a time: a traced request serializes
	// on the database mutex, so two traced callers time each other's
	// waits, and the layer split wants a request's own time. Only the
	// solo samples feed the split and the budget.
	traced := e.closedLoop(callers, share(seconds, tracedShare/2), true)
	for _, c := range callers {
		c.samples = c.samples[:0]
	}
	for _, c := range callers {
		e.closedLoop([]*caller{c}, share(seconds, tracedShare/2/float64(len(callers))), true)
		c.tr = nil
		pass.samples = append(pass.samples, c.samples...)
	}
	if err := e.servedExtras(res, callers[0]); err != nil {
		return nil, err
	}
	open := e.openLoop(callers, share(seconds, lateShare), e.w.Rate)
	res.set(clientMetrics(&plain, &open))
	res.Metrics["client.sched_late_ms"] = open.latency(numKinds, 0.95, opLate)
	res.Metrics["client.quiet_ops_per_s"], res.Metrics["client.quiet_range_p50_ms"] = plain.quiet()
	res.Metrics["proc.server_cpu_us_per_op"] = plain.kidsCPU * 1e6 / float64(plain.ops)
	res.Metrics["proc.client_cpu_us_per_op"] = plain.selfCPU * 1e6 / float64(plain.ops)
	a, b := float64(plain.ops)/plain.wall.Seconds(), float64(traced.ops)/traced.wall.Seconds()
	res.Metrics["obs.trace_overhead_pct"] = (a - b) / a * 100
	return pass, nil
}

// crashAndVerify takes the final checkpoint (the durability commit
// point), crashes and restarts the database processes, and then
// checks everything the run kept: the count and a
// sample of the acked writes after the restart, and every 16th read
// against the library. It fills the run's totals.
func (e *env) crashAndVerify(ctx context.Context, res *result, callers []*caller) {
	final := op{kind: opCheckpoint}
	if _, err := callers[0].target.do(&final, false); err != nil {
		res.problem("final checkpoint: %v", err)
	}
	live := len(e.static)
	for _, c := range callers {
		live += len(c.inserted) - len(c.deleted)
	}
	if res.Traced {
		for _, c := range e.children() {
			res.Metrics["proc.server_rss_mb"] += peakRSSMB(c.cmd.Process.Pid)
		}
	}
	var recoveries []float64
	for i := 0; i < e.cfg.sz.Recoveries; i++ {
		d, err := e.crashAndRecover(live)
		if err != nil {
			res.problem("recovery: %v", err)
			break
		}
		recoveries = append(recoveries, d.Seconds())
	}
	res.set(map[string]float64{"recovery_s": median(recoveries)})

	wrong := 0
	if len(res.Problems) == 0 {
		n, err := verifySample(e.targets[0], callers, e.cfg.sz.SampleN)
		if err != nil {
			res.problem("re-reading acked writes: %v", err)
		}
		wrong += n
	}
	n, err := verifyReads(ctx, e.grid, e.static, callers, !e.w.writes())
	if err != nil {
		res.problem("differential check: %v", err)
	}
	wrong += n
	if wrong > 0 {
		res.problem("%d wrong answers", wrong)
	}
	res.Failed += wrong
	for _, c := range callers {
		res.Attempted += c.attempted
		res.Failed += c.failed
		res.Conflicts += c.conflicts
		if c.firstErr != nil {
			res.problem("%v", c.firstErr)
		}
	}
}

// clientLatencies fills the tails and the write latencies from an
// untraced closed-loop phase. One workload runs the write kinds, and a
// p99 does not repeat on a shared two-core machine, so none of them
// was ever a candidate for a bound.
func clientLatencies(res *result, ph *phase) {
	res.Metrics["client.range_p99_ms"] = ph.latency(opRange, 0.99, opMs)
	res.Metrics["client.insert_p50_ms"] = ph.latency(opInsert, 0.5, opMs)
	res.Metrics["client.insert_p99_ms"] = ph.latency(opInsert, 0.99, opMs)
	res.Metrics["client.tx_p50_ms"] = ph.latency(opTx, 0.5, opMs)
	res.Metrics["client.delete_p50_ms"] = ph.latency(opDelete, 0.5, opMs)
	res.Metrics["client.checkpoint_p50_ms"] = ph.latency(opCheckpoint, 0.5, opMs)
	res.Metrics["client.checkpoint_max_ms"] = ph.latency(opCheckpoint, 1, opMs)
}

// servedExtras measures what needs a live connection: the fixed cost
// of a request that does no engine work, the client's allocations per
// call, and the servers' own rejection counters.
func (e *env) servedExtras(res *result, c *caller) error {
	ct, ok := c.target.(*connTarget)
	if !ok {
		return nil // embedded: no client, no server
	}
	// A box with nothing in it: zero rows, zero batches.
	var lo []uint32
	for x := uint32(0); x < 1<<gridBits; x++ {
		pts, err := ct.points([]uint32{x, x}, []uint32{x, x})
		if err != nil {
			return err
		}
		if len(pts) == 0 {
			lo = []uint32{x, x}
			break
		}
	}
	if lo == nil {
		return fmt.Errorf("no empty pixel on the diagonal")
	}
	var rtt []float64
	for i := 0; i < 300; i++ {
		t0 := time.Now()
		if _, err := ct.points(lo, lo); err != nil {
			return err
		}
		rtt = append(rtt, float64(time.Since(t0))/1e3)
	}
	res.Metrics["server.empty_rtt_us"] = median(rtt)
	var cerr error
	res.Metrics["client.range_allocs"] = testing.AllocsPerRun(200, func() {
		if _, err := ct.points(lo, lo); err != nil {
			cerr = err
		}
	})
	if cerr != nil {
		return cerr
	}
	stats, err := ct.c.Stats(ct.ctx)
	if err != nil {
		return err
	}
	for k, v := range stats {
		if strings.HasSuffix(k, ".rejected") {
			res.Metrics["server.rejected"] += float64(v)
		}
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// tracedLayers derives the per-layer metrics of the traced replay:
// the server's phase split and the client's residual for range, the
// pool's behaviour over all reads, the router's fan-out.
func tracedLayers(res *result, w workloadSpec, samples []traceSample) {
	var clientUs, queue, plan, exec, stream, total []float64
	var gets, hits, evict, wb, phys float64
	var fanShards, fanCall, merge, overhead []float64
	reads := 0
	for _, s := range samples {
		if s.kind.isRead() {
			reads++
			gets += float64(s.stats.PoolGets)
			hits += float64(s.stats.PoolHits)
			evict += float64(s.stats.PoolEvictions)
			wb += float64(s.stats.PoolWriteBacks)
			phys += float64(s.stats.PhysReads)
		}
		if s.kind == opRange {
			clientUs = append(clientUs, float64(s.clientNs)/1e3)
			if s.timing.Total > 0 {
				queue = append(queue, us(s.timing.Queue))
				plan = append(plan, us(s.timing.Plan))
				exec = append(exec, us(s.timing.Exec))
				stream = append(stream, us(s.timing.Stream))
				total = append(total, us(s.timing.Total))
			}
		}
		// The router's numbers are taken over every RANGE request, small
		// and large: only a box that spans shards is merged at all.
		if s.kind != opRange && s.kind != opScan {
			continue
		}
		if s.tree == nil || !strings.HasPrefix(s.tree.Name(), "router.") {
			continue
		}
		// Under the router's span: one fanout.shardN.* child per shard
		// called, each holding that shard's own server.* phases, and the
		// merge.
		n, slowest := 0, time.Duration(0)
		for _, ch := range s.tree.Children() {
			switch {
			case strings.HasPrefix(ch.Name(), "fanout."):
				n++
				fanCall = append(fanCall, us(ch.Duration()))
				var server time.Duration
				for _, g := range ch.Children() {
					if strings.HasPrefix(g.Name(), "server.") {
						server += g.Duration()
					}
				}
				slowest = max(slowest, server)
			case ch.Name() == "merge":
				merge = append(merge, us(ch.Duration()))
			}
		}
		fanShards = append(fanShards, float64(n))
		overhead = append(overhead, us(s.tree.Duration()-slowest))
	}
	if w.Kind != targetEmbed {
		res.Metrics["server.queue_us"] = median(queue)
		res.Metrics["server.plan_us"] = median(plan)
		res.Metrics["server.exec_us"] = median(exec)
		res.Metrics["server.stream_us"] = median(stream)
		res.Metrics["server.total_us"] = median(total)
		res.Metrics["client.residual_us"] = median(clientUs) - median(total)
	}
	if gets > 0 {
		res.Metrics["disk.pool_hit_ratio"] = hits / gets
	}
	if reads > 0 {
		res.Metrics["disk.pool_evictions_per_op"] = evict / float64(reads)
		res.Metrics["disk.pool_writebacks_per_op"] = wb / float64(reads)
		res.Metrics["disk.phys_reads_per_op"] = phys / float64(reads)
	}
	if len(fanShards) > 0 {
		sum := 0.0
		for _, n := range fanShards {
			sum += n
		}
		res.Metrics["router.fanout_shards"] = sum / float64(len(fanShards))
		res.Metrics["router.fanout_call_us"] = median(fanCall)
		res.Metrics["router.merge_us"] = median(merge)
		res.Metrics["router.overhead_us"] = median(overhead)
	}
}

// budgetRow is one line of the latency budget of a range request.
type budgetRow struct {
	Name string  `json:"name"`
	Us   float64 `json:"us"`
}

// budget splits the latency of the typical range request into rows
// that sum. "Typical" is the mean over the traced requests between the
// 40th and 60th percentile of client latency, so that the rows of one
// population add up, which medians of the parts would not.
//
// The client, queue, plan, exec and stream rows are measured on one
// caller at a time: the client's clock around the call and the
// server's own phase split. What the same request costs more beside a
// second caller, on a machine whose two processors the callers share
// with the server, is the untraced p50 of all callers minus that of
// one. The split of exec is a model, because the program reports
// counts, not spans, below the engine call: pool = page requests x the
// pool-hit drill, decompose = elements x the cursor drill, btree =
// seeks x the seek drill + results x the next drill - pool, and core
// is what is left. It says where a saving should appear, not how large
// it is. The sum's gap to the untraced p50 is what tracing adds to a
// request.
func budget(res *result, samples []traceSample, untracedP50us, soloP50us float64) []budgetRow {
	var rs []traceSample
	for _, s := range samples {
		if s.kind == opRange {
			rs = append(rs, s)
		}
	}
	if len(rs) == 0 {
		return nil
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].clientNs < rs[j].clientNs })
	band := rs[len(rs)*2/5 : max(len(rs)*3/5, len(rs)*2/5+1)]
	var cl, queue, plan, exec, stream, gets, seeks, elems, results float64
	for _, s := range band {
		cl += float64(s.clientNs) / 1e3
		queue += us(s.timing.Queue)
		plan += us(s.timing.Plan)
		stream += us(s.timing.Stream)
		ex := us(s.timing.Exec)
		if s.timing.Total == 0 && s.tree != nil {
			// Embedded: the engine's own span is the exec phase.
			for _, ch := range s.tree.Children() {
				ex += us(ch.Duration())
			}
		}
		exec += ex
		gets += float64(s.stats.PoolGets)
		seeks += float64(s.stats.Seeks)
		elems += float64(s.stats.Elements)
		results += float64(s.stats.Results)
	}
	n := float64(len(band))
	for _, v := range []*float64{&cl, &queue, &plan, &exec, &stream, &gets, &seeks, &elems, &results} {
		*v /= n
	}
	m := res.Metrics
	pool := gets * m["disk.pool_get_hit_ns"] / 1e3
	dec := elems * m["decompose.cursor_next_ns"] / 1e3
	bt := max(0, seeks*m["btree.seekge_ns"]/1e3+results*m["btree.next_ns"]/1e3-pool)
	if sum := pool + dec + bt; sum > exec && sum > 0 {
		f := exec / sum
		pool, dec, bt = pool*f, dec*f, bt*f
	}
	core := exec - pool - dec - bt
	rows := []budgetRow{
		{"client residual (encode, kernel, decode)", cl - queue - plan - exec - stream},
		{"server queue", queue},
		{"server plan (decode, validate)", plan},
		{"server exec: btree", bt},
		{"server exec: pool", pool},
		{"server exec: decompose", dec},
		{"server exec: core (merge, results)", core},
		{"server stream", stream},
		{"beside the second caller (untraced p50, all callers - one)", untracedP50us - soloP50us},
	}
	m["budget.exec_btree_us"], m["budget.exec_pool_us"] = bt, pool
	m["budget.exec_decompose_us"], m["budget.exec_core_us"] = dec, core
	m["budget.second_caller_us"] = untracedP50us - soloP50us
	m["budget.sum_us"] = cl + untracedP50us - soloP50us
	if untracedP50us > 0 {
		m["budget.gap_pct"] = (cl - soloP50us) / untracedP50us * 100
	}
	return rows
}

// printBudget renders the budget table.
func printBudget(w *strings.Builder, res *result) {
	if len(res.Budget) == 0 {
		return
	}
	fmt.Fprintf(w, "latency budget of a typical range request @ %s (traced)\n", res.Workload)
	sum := 0.0
	for _, r := range res.Budget {
		fmt.Fprintf(w, "  %-58s %10.1f us\n", r.Name, r.Us)
		sum += r.Us
	}
	fmt.Fprintf(w, "  %-58s %10.1f us\n", "sum of rows", sum)
	fmt.Fprintf(w, "  %-58s %+10.1f %%\n", "gap of the sum to the untraced range p50", res.Metrics["budget.gap_pct"])
}

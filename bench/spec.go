package main

import (
	"encoding/json"
	"fmt"
	"runtime"
)

// The benchmark's vocabulary: workloads, end-to-end metrics and
// per-layer metrics. BENCHMARK.json at the repository root is the
// rendering of these tables (zbench -spec prints it; bench_test.go
// checks the two agree), so a metric is declared exactly once.

// runSeconds is how long one run measures; BENCHMARK.json freezes it.
const runSeconds = 20

// targetKind says which path a workload's operations take.
type targetKind int

const (
	targetEmbed   targetKind = iota // probe.DB in this process
	targetServe                     // client.Conn -> one probed child
	targetCluster                   // client.Conn -> zrouted -> 3 probed children
)

// workloadSpec is one traffic mix and the path it is sent down.
type workloadSpec struct {
	Name string
	Why  string
	Kind targetKind
	// Conns is the number of closed-loop callers: goroutines on the
	// embedded path, client connections on the served ones.
	Conns int
	// Pool is the buffer pool capacity in pages of every database
	// process. The bulk-loaded tree has about 780 leaf pages.
	Pool int
	// Mix is the share of each operation kind, in percent.
	Mix [numKinds]int
	// CheckpointEvery makes connection 0 issue a CHECKPOINT after this
	// many of its own operations (0 = never): the flush policy.
	CheckpointEvery int
	// AllocOps is the number of operations at the start of the closed
	// loop, dealt evenly to the callers, that allocs_per_op is taken
	// over: 5 to 6 of the closed loop's 16 s at the commit that added the
	// benchmark, 10 of them on the slower cluster_read. More would not
	// steady it much: most of its spread across seeds is the data's.
	AllocOps int
	// Rate is the open-loop phase's fixed arrival rate in operations
	// per second, about a fifth of the closed-loop throughput measured
	// at the commit that added the benchmark (2 030, 2 040, 1 310 and
	// 410 ops/s). It is a constant, not derived at run time, so both
	// sides of a comparison offer the same load.
	Rate int
}

// writes reports whether the mix changes the stored data.
func (w workloadSpec) writes() bool {
	return w.Mix[opInsert]+w.Mix[opTx]+w.Mix[opDelete] > 0
}

// conns is min(nproc, 2): the load comes from one process and never
// uses more callers than the machine has processors.
func conns() int { return min(runtime.NumCPU(), 2) }

// readMix is mix R: the read-only sequence the three read workloads
// replay, so their differences come from the path and not the inputs.
var readMix = [numKinds]int{opRange: 60, opScan: 5, opNearest: 15, opQuery: 15, opJoin: 5}

// writeMix puts writes beside reads on the same layers. The read
// kinds other than range keep a small share so that every end-to-end
// metric is measured on every workload.
var writeMix = [numKinds]int{opInsert: 36, opTx: 8, opDelete: 4, opRange: 36,
	opScan: 2, opNearest: 6, opQuery: 6, opJoin: 2}

var workloads = []workloadSpec{
	{
		Name: "embed_read", Kind: targetEmbed, Conns: 1, Pool: 2048, Mix: readMix, AllocOps: 10000, Rate: 400,
		Why: "read mix R in-process on a warm pool: engine only, wire/server/client/router do nothing; 1 goroutine, open-loop phase at 400 ops/s",
	},
	{
		Name: "serve_read", Kind: targetServe, Conns: conns(), Pool: 2048, Mix: readMix, AllocOps: 10000, Rate: 400,
		Why: "the same sequence over loopback to one probed: delta to embed_read is client+wire+session; 2 conns, open-loop phase at 400 ops/s",
	},
	{
		Name: "serve_write", Kind: targetServe, Conns: conns(), Pool: 64, Mix: writeMix, CheckpointEvery: 256, AllocOps: 8000, Rate: 250,
		Why: "inserts, tx, deletes and CHECKPOINT every 256 ops beside reads on a pool of 8 % of the tree: COW btree, evictions, WAL, recovery; 2 conns, open loop 250 ops/s",
	},
	{
		Name: "cluster_read", Kind: targetCluster, Conns: conns(), Pool: 2048, Mix: readMix, AllocOps: 4000, Rate: 80,
		Why: "the read sequence through zrouted over 3 probed shards: delta to serve_read is router session+fan-out+z-merge; 2 conns, open loop 80 ops/s",
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// e2eSpec is a metric a user of the system sees, measured with tracing
// off by every workload.
type e2eSpec struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which the metric may
	// get worse before a change counts as a regression.
	Bound float64
	// SameSeed, where set, is the bound the issue fixed for a count that
	// is taken after or over a fixed number of operations, and so repeats
	// for a seed (zbench -aa checks it). Bound is wider because the driver
	// takes a metric's spread over ten seeds, which for such a count is
	// the difference between the inputs, and refuses a bound below it.
	SameSeed float64
	// Demoted marks a metric that failed the A/A check at Bound on at
	// least one workload. The rule is that such a metric is not given a
	// wider bound: it moves to the per-layer list, which has no bounds,
	// as "client."+Name, and zbench -aa keeps reporting its spread.
	Demoted bool
}

// candidates are the issue's end-to-end metrics at the issue's bounds
// (setup_s at the contract's largest). results/seed.json is the A/A
// check that demoted the timings: on the shared machine this was built
// on every one of them spread or drifted by more than a tenth on at
// least one workload.
var candidates = []e2eSpec{
	// data generation + bulk load + process start + handshake + warm-up; median of 3 set-ups per run
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	// completed operations / wall time of the closed loop, so stalls and tails land here
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, Demoted: true},
	// small range (box side 24-48, median 17 rows): per-request overhead and seeks
	{Name: "range_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Demoted: true},
	// tail of the same
	{Name: "range_p95_ms", Unit: "ms", Better: "lower", Bound: 0.10, Demoted: true},
	// 2 k-row range (box side about 400, 4 batches): stream and codec
	{Name: "scan_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Demoted: true},
	// 8 nearest neighbours, Euclidean
	{Name: "nearest_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Demoted: true},
	// spatial join of two lists of 32 boxes
	{Name: "join_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Demoted: true},
	// SQL: SELECT id .. CONTAINS .. LIMIT 100 alternating with SELECT COUNT(*) .. INTERSECTS
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Demoted: true},
	// open-loop phase at the workload's fixed rate, all kinds: latency from the intended send time
	{Name: "sched_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Demoted: true},
	{Name: "sched_p95_ms", Unit: "ms", Better: "lower", Bound: 0.10, Demoted: true},
	// SIGKILL (embedded: drop the handle) -> restart -> first correct full COUNT(*); median of 5 cycles per run
	{Name: "recovery_s", Unit: "s", Better: "lower", Bound: 0.10, Demoted: true},
	// (page files + WAL) / live points after 1 024 operations of caller 0 and a checkpoint
	{Name: "disk_bytes_per_point", Unit: "B", Better: "lower", Bound: 0.05, SameSeed: 0.02},
	// heap allocations in the benchmark process per operation, over the fixed number of operations
	// (AllocOps) the closed loop starts with: the engine's on embed_read, the client's elsewhere.
	// Count-bound, so it repeats for a seed whatever the machine's speed: over a time-bound loop a
	// run that was 2.4 times slower read 5 % lower on serve_write, because an operation allocates
	// per row returned and the rows grow with what the run has inserted.
	{Name: "allocs_per_op", Unit: "1", Better: "lower", Bound: 0.10, SameSeed: 0.01},
}

// reportName is the name a run reports the candidate under.
func (m e2eSpec) reportName() string {
	if m.Demoted {
		return "client." + m.Name
	}
	return m.Name
}

// endToEnd are the candidates that carry a bound, perLayer the module
// metrics and after them the demoted candidates: the two lists of
// BENCHMARK.json.
var endToEnd, perLayer = func() (e2e []e2eSpec, layers []layerSpec) {
	layers = moduleMetrics
	for _, m := range candidates {
		if m.Demoted {
			layers = append(layers, layerSpec{Name: m.reportName(), Unit: m.Unit, Better: m.Better, Moves: m.Name})
		} else {
			e2e = append(e2e, m)
		}
	}
	return e2e, layers
}()

// layerSpec is a metric of one module. Moves and On record, before
// any measurement, which of the candidates above on which workload the
// number should move; on a workload that bypasses the layer the
// prediction is no change. A demoted candidate is its own Moves and
// has no On.
type layerSpec struct {
	Name   string
	Unit   string
	Better string
	Moves  string
	On     string
}

var moduleMetrics = []layerSpec{
	{"zorder.shuffle_ns", "ns", "lower", "range_p50_ms", "embed_read"},
	{"zorder.bigmin_ns", "ns", "lower", "range_p50_ms", "embed_read"},
	{"zorder.bigmin_allocs", "1", "lower", "allocs_per_op", "embed_read"},

	{"decompose.box_ns", "ns", "lower", "join_p50_ms", "embed_read"},
	{"decompose.elements_per_box", "1", "lower", "range_p50_ms", "embed_read"},
	{"decompose.cursor_next_ns", "ns", "lower", "range_p50_ms", "embed_read"},

	{"btree.seekge_ns", "ns", "lower", "range_p50_ms", "embed_read"},
	{"btree.seekge_allocs", "1", "lower", "allocs_per_op", "embed_read"},
	{"btree.seekge_pages", "1", "lower", "range_p50_ms", "embed_read"},
	{"btree.next_ns", "ns", "lower", "scan_p50_ms", "embed_read"},
	{"btree.get_ns", "ns", "lower", "ops_per_s", "serve_write"},
	{"btree.insert_ns", "ns", "lower", "ops_per_s", "serve_write"},
	{"btree.insert_allocs", "1", "lower", "ops_per_s", "serve_write"},
	{"btree.commitbatch_ns_per_mut", "ns", "lower", "ops_per_s", "serve_write"},
	{"btree.load_ns_per_entry", "ns", "lower", "setup_s", "embed_read"},

	{"disk.pool_get_hit_ns", "ns", "lower", "range_p50_ms", "embed_read"},
	{"disk.pool_get_miss_ns", "ns", "lower", "range_p50_ms", "serve_write"},
	{"disk.pool_hit_ratio", "ratio", "higher", "range_p50_ms", "serve_write"},
	{"disk.pool_evictions_per_op", "1", "lower", "range_p50_ms", "serve_write"},
	{"disk.pool_writebacks_per_op", "1", "lower", "ops_per_s", "serve_write"},
	{"disk.phys_reads_per_op", "1", "lower", "range_p50_ms", "serve_write"},
	{"disk.wal_append_ns", "ns", "lower", "ops_per_s", "serve_write"},
	{"disk.wal_sync_ns", "ns", "lower", "ops_per_s", "serve_write"},
	{"disk.wal_appends_per_insert", "1", "lower", "ops_per_s", "serve_write"},
	{"disk.wal_bytes_per_point", "B", "lower", "disk_bytes_per_point", "serve_write"},
	{"disk.checkpoint_ms_per_dirty_page", "ms", "lower", "ops_per_s", "serve_write"},
	{"disk.recover_ms_per_wal_mb", "ms", "lower", "recovery_s", "serve_write"},

	{"core.range_a_ns", "ns", "lower", "range_p50_ms", "embed_read"},
	{"core.range_b_ns", "ns", "lower", "range_p50_ms", "embed_read"},
	{"core.range_c_ns", "ns", "lower", "range_p50_ms", "embed_read"},
	{"core.range_allocs", "1", "lower", "allocs_per_op", "embed_read"},
	{"core.range_pages_per_query", "1", "lower", "range_p50_ms", "embed_read"},
	{"core.range_entries_per_result", "1", "lower", "range_p50_ms", "embed_read"},
	{"core.range_efficiency", "ratio", "higher", "range_p50_ms", "embed_read"},
	{"core.nearest_ns", "ns", "lower", "nearest_p50_ms", "embed_read"},
	{"core.nearest_pages", "1", "lower", "nearest_p50_ms", "embed_read"},
	{"core.join_ns_per_pair", "ns", "lower", "join_p50_ms", "embed_read"},
	{"core.join_allocs", "1", "lower", "join_p50_ms", "embed_read"},

	{"planner.plan_range_ns", "ns", "lower", "query_p50_ms", "embed_read"},
	{"planner.plan_range_allocs", "1", "lower", "query_p50_ms", "embed_read"},

	{"query.parse_ns", "ns", "lower", "query_p50_ms", "embed_read"},
	{"query.compile_ns", "ns", "lower", "query_p50_ms", "embed_read"},
	{"query.overhead_ns", "ns", "lower", "query_p50_ms", "embed_read"},

	{"probe.range_ns", "ns", "lower", "range_p50_ms", "embed_read"},
	{"probe.range_allocs", "1", "lower", "allocs_per_op", "embed_read"},
	{"probe.range_bytes", "B", "lower", "allocs_per_op", "embed_read"},
	{"probe.tx_commit_ns", "ns", "lower", "ops_per_s", "serve_write"},
	{"probe.open_recover_ms", "ms", "lower", "recovery_s", "embed_read"},

	{"wire.range_req_encode_ns", "ns", "lower", "range_p50_ms", "serve_read"},
	{"wire.range_req_decode_ns", "ns", "lower", "range_p50_ms", "serve_read"},
	{"wire.batch_encode_ns", "ns", "lower", "scan_p50_ms", "serve_read"},
	{"wire.batch_decode_ns", "ns", "lower", "scan_p50_ms", "serve_read"},
	{"wire.batch_allocs", "1", "lower", "scan_p50_ms", "serve_read"},
	{"wire.frame_rw_ns", "ns", "lower", "scan_p50_ms", "serve_read"},
	{"wire.bytes_per_row", "B", "lower", "scan_p50_ms", "serve_read"},

	{"server.queue_us", "us", "lower", "range_p50_ms", "serve_read"},
	{"server.plan_us", "us", "lower", "range_p50_ms", "serve_read"},
	{"server.exec_us", "us", "lower", "range_p50_ms", "serve_read"},
	{"server.stream_us", "us", "lower", "range_p50_ms", "serve_read"},
	{"server.total_us", "us", "lower", "range_p50_ms", "serve_read"},
	{"server.empty_rtt_us", "us", "lower", "range_p50_ms", "serve_read"},
	{"server.rejected", "count", "lower", "ops_per_s", "serve_read"},

	{"client.residual_us", "us", "lower", "range_p50_ms", "serve_read"},
	{"client.range_allocs", "1", "lower", "allocs_per_op", "serve_read"},
	{"client.range_p99_ms", "ms", "lower", "range_p95_ms", "serve_read"},
	{"client.insert_p50_ms", "ms", "lower", "ops_per_s", "serve_write"},
	{"client.insert_p99_ms", "ms", "lower", "ops_per_s", "serve_write"},
	{"client.tx_p50_ms", "ms", "lower", "ops_per_s", "serve_write"},
	{"client.delete_p50_ms", "ms", "lower", "ops_per_s", "serve_write"},
	{"client.checkpoint_p50_ms", "ms", "lower", "ops_per_s", "serve_write"},
	{"client.checkpoint_max_ms", "ms", "lower", "range_p95_ms", "serve_write"},
	{"client.tx_conflicts", "count", "lower", "ops_per_s", "serve_write"},
	{"client.sched_late_ms", "ms", "lower", "sched_p50_ms", "serve_read"},
	{"client.quiet_ops_per_s", "1/s", "higher", "ops_per_s", "serve_read"},
	{"client.quiet_range_p50_ms", "ms", "lower", "range_p50_ms", "serve_read"},

	{"router.fanout_shards", "1", "lower", "range_p50_ms", "cluster_read"},
	{"router.fanout_call_us", "us", "lower", "range_p50_ms", "cluster_read"},
	{"router.merge_us", "us", "lower", "scan_p50_ms", "cluster_read"},
	{"router.overhead_us", "us", "lower", "range_p50_ms", "cluster_read"},

	{"proc.server_cpu_us_per_op", "us", "lower", "ops_per_s", "serve_read"},
	{"proc.client_cpu_us_per_op", "us", "lower", "ops_per_s", "serve_read"},
	{"proc.server_rss_mb", "MB", "lower", "ops_per_s", "serve_read"},

	{"obs.trace_overhead_pct", "%", "lower", "ops_per_s", "serve_read"},

	// The budget table for range: the traced p50 split into rows that
	// sum, and the gap of that sum to the untraced p50.
	{"budget.exec_btree_us", "us", "lower", "range_p50_ms", "embed_read"},
	{"budget.exec_pool_us", "us", "lower", "range_p50_ms", "embed_read"},
	{"budget.exec_decompose_us", "us", "lower", "range_p50_ms", "embed_read"},
	{"budget.exec_core_us", "us", "lower", "range_p50_ms", "embed_read"},
	{"budget.second_caller_us", "us", "lower", "range_p50_ms", "serve_read"},
	{"budget.sum_us", "us", "lower", "range_p50_ms", "serve_read"},
	{"budget.gap_pct", "%", "lower", "range_p50_ms", "serve_read"},
}

// exactCounts are the per-layer metrics computed over a fixed number
// of inputs: they repeat exactly for one seed and differ for another.
var exactCounts = []string{
	"core.range_pages_per_query",
	"core.range_entries_per_result",
	"decompose.elements_per_box",
	"btree.seekge_pages",
}

// benchmarkJSON renders the tables in the BENCHMARK.json contract.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			return nil, fmt.Errorf("workload %s: why has %d characters, limit 200", w.Name, len(w.Why))
		}
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

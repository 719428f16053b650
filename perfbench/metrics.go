package main

// The metric registry. BENCHMARK.json at the repository root declares the
// same names, units and directions to whatever runs the benchmark;
// metrics_test.go checks that the two agree and that every per-layer metric
// names the end-to-end metric it should move and the workloads it should
// move it on.

// Workload names.
const (
	wGSEAlg   = "gse-alg"
	wBWTFloat = "bwt-float"
	wServeHot = "serve-hot"
	wBatch    = "batch-variants"
)

var workloadNames = []string{wGSEAlg, wBWTFloat, wServeHot, wBatch}

// metricDef describes one reported metric. End-to-end metrics carry a bound;
// per-layer metrics carry the end-to-end metric they should move (Target)
// and the workloads they should move it on (On). Target "run" marks a
// metric that checks the run itself rather than the program; "ungated"
// marks an end-to-end figure whose run-to-run spread on a shared 2-CPU
// host is wider than any bound the benchmark may set, so it is reported by
// the traced run without a bound: wall-clock latency, which counts the time
// the hypervisor gives to other guests, and the tail and capacity figures.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Target string
	On     []string
}

var (
	simWorkloads   = []string{wGSEAlg, wBWTFloat}
	serveWorkloads = []string{wServeHot, wBatch}
)

// endToEnd are the metrics a user of the library or the service sees. Each
// is reported by every workload; see README.md for what one unit of work is
// on each. cpu_ms.p50 is the process's CPU time per unit of work, what the
// unit costs; its inverse is the work one core completes per second.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms.p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower", Bound: 0.2},
	{Name: "final_nodes", Unit: "count", Better: "lower", Bound: 0.1},
}

// perLayer are the traced run's metrics, one group per module.
var perLayer = []metricDef{
	{Name: "alg.div.calls", Unit: "count", Better: "lower", Target: "cpu_ms.p50", On: []string{wGSEAlg}},
	{Name: "alg.div.s", Unit: "s", Better: "lower", Target: "cpu_ms.p50", On: []string{wGSEAlg}},
	{Name: "alg.mul.calls", Unit: "count", Better: "lower", Target: "cpu_ms.p50", On: []string{wGSEAlg}},
	{Name: "alg.mul.s", Unit: "s", Better: "lower", Target: "cpu_ms.p50", On: []string{wGSEAlg}},
	{Name: "alg.add.calls", Unit: "count", Better: "lower", Target: "cpu_ms.p50", On: []string{wGSEAlg}},
	{Name: "alg.add.s", Unit: "s", Better: "lower", Target: "cpu_ms.p50", On: []string{wGSEAlg}},
	{Name: "alg.eq_hash.calls", Unit: "count", Better: "lower", Target: "cpu_ms.p50", On: []string{wGSEAlg}},
	{Name: "alg.eq_hash.s", Unit: "s", Better: "lower", Target: "cpu_ms.p50", On: []string{wGSEAlg}},
	{Name: "alg.share", Unit: "share", Better: "lower", Target: "cpu_ms.p50", On: []string{wGSEAlg}},
	{Name: "alg.max_coeff_bits", Unit: "bits", Better: "lower", Target: "cpu_ms.p50", On: []string{wGSEAlg}},

	{Name: "num.calls", Unit: "count", Better: "lower", Target: "cpu_ms.p50", On: []string{wBWTFloat}},
	{Name: "num.s", Unit: "s", Better: "lower", Target: "cpu_ms.p50", On: []string{wBWTFloat}},
	{Name: "num.share", Unit: "share", Better: "lower", Target: "cpu_ms.p50", On: []string{wBWTFloat}},

	{Name: "core.unique_lookups", Unit: "count", Better: "lower", Target: "cpu_ms.p50", On: []string{wBWTFloat}},
	{Name: "core.unique_hit_ratio", Unit: "share", Better: "higher", Target: "cpu_ms.p50", On: []string{wBWTFloat}},
	{Name: "core.ct_lookups", Unit: "count", Better: "lower", Target: "cpu_ms.p50", On: []string{wBWTFloat}},
	{Name: "core.ct_hit_ratio", Unit: "share", Better: "higher", Target: "cpu_ms.p50", On: []string{wBWTFloat}},
	{Name: "core.interned_weights", Unit: "count", Better: "lower", Target: "peak_heap_mb", On: []string{wBWTFloat}},
	{Name: "core.peak_nodes", Unit: "count", Better: "lower", Target: "peak_heap_mb", On: []string{wBWTFloat}},
	{Name: "core.self_s", Unit: "s", Better: "lower", Target: "cpu_ms.p50", On: []string{wBWTFloat}},

	{Name: "sim.gates", Unit: "count", Better: "lower", Target: "cpu_ms.p50", On: simWorkloads},
	{Name: "sim.apply_us.p50", Unit: "us", Better: "lower", Target: "cpu_ms.p50", On: simWorkloads},
	{Name: "sim.apply_us.p99", Unit: "us", Better: "lower", Target: "cpu_ms.p50", On: simWorkloads},
	{Name: "sim.allocs_per_gate", Unit: "count", Better: "lower", Target: "cpu_ms.p50", On: simWorkloads},
	{Name: "sim.alloc_bytes_per_gate", Unit: "B", Better: "lower", Target: "peak_heap_mb", On: simWorkloads},
	{Name: "sim.state_err", Unit: "l2", Better: "lower", Target: "run", On: simWorkloads},

	{Name: "synth.compile_s", Unit: "s", Better: "lower", Target: "setup_s", On: []string{wGSEAlg}},

	{Name: "router.routed", Unit: "count", Better: "higher", Target: "cpu_ms.p50", On: []string{wServeHot}},
	{Name: "router.rerouted", Unit: "count", Better: "lower", Target: "cpu_ms.p50", On: []string{wServeHot}},
	{Name: "router.shed", Unit: "count", Better: "lower", Target: "cpu_ms.p50", On: []string{wServeHot}},
	{Name: "router.proxy_errors", Unit: "count", Better: "lower", Target: "cpu_ms.p50", On: []string{wServeHot}},
	{Name: "router.hop_ms.p50", Unit: "ms", Better: "lower", Target: "cpu_ms.p50", On: []string{wServeHot}},

	{Name: "server.overhead_ms.p50", Unit: "ms", Better: "lower", Target: "cpu_ms.p50", On: []string{wServeHot}},
	{Name: "server.overhead_ms.p99", Unit: "ms", Better: "lower", Target: "cpu_ms.p50", On: []string{wServeHot}},

	{Name: "engine.queue_wait_ms.p50", Unit: "ms", Better: "lower", Target: "cpu_ms.p50", On: []string{wBatch}},
	{Name: "engine.queue_wait_ms.p99", Unit: "ms", Better: "lower", Target: "cpu_ms.p50", On: serveWorkloads},
	{Name: "engine.service_ms.p50", Unit: "ms", Better: "lower", Target: "cpu_ms.p50", On: []string{wBatch}},
	{Name: "engine.service_ms.p99", Unit: "ms", Better: "lower", Target: "cpu_ms.p50", On: serveWorkloads},
	{Name: "engine.jobs_started", Unit: "count", Better: "lower", Target: "cpu_ms.p50", On: serveWorkloads},
	{Name: "engine.deduped", Unit: "count", Better: "higher", Target: "cpu_ms.p50", On: []string{wServeHot}},
	{Name: "engine.cached_share", Unit: "share", Better: "higher", Target: "cpu_ms.p50", On: []string{wServeHot}},
	{Name: "engine.busy_share", Unit: "share", Better: "lower", Target: "cpu_ms.p50", On: serveWorkloads},

	{Name: "qcache.hit_ratio", Unit: "share", Better: "higher", Target: "cpu_ms.p50", On: []string{wServeHot}},
	{Name: "qcache.disk_hits", Unit: "count", Better: "higher", Target: "cpu_ms.p50", On: []string{wServeHot}},
	{Name: "qcache.stores", Unit: "count", Better: "lower", Target: "cpu_ms.p50", On: []string{wBatch}},
	{Name: "qcache.evictions", Unit: "count", Better: "lower", Target: "cpu_ms.p50", On: serveWorkloads},
	{Name: "qcache.bytes", Unit: "B", Better: "lower", Target: "peak_heap_mb", On: serveWorkloads},
	{Name: "qcache.peer_hits", Unit: "count", Better: "higher", Target: "cpu_ms.p50", On: []string{wServeHot}},

	{Name: "prefix.hits", Unit: "count", Better: "higher", Target: "cpu_ms.p50", On: []string{wBatch}},
	{Name: "prefix.skip_share", Unit: "share", Better: "higher", Target: "cpu_ms.p50", On: []string{wBatch}},
	{Name: "prefix.checkpoints_stored", Unit: "count", Better: "lower", Target: "cpu_ms.p50", On: []string{wBatch}},
	{Name: "prefix.checkpoint_bytes", Unit: "B", Better: "lower", Target: "cpu_ms.p50", On: []string{wBatch}},

	{Name: "latency_ms.p50", Unit: "ms", Better: "lower", Target: "ungated", On: workloadNames},
	{Name: "loadgen.latency_ms.p99", Unit: "ms", Better: "lower", Target: "ungated", On: []string{wServeHot}},
	{Name: "loadgen.max_rate_rps", Unit: "1/s", Better: "higher", Target: "ungated", On: []string{wServeHot}},
	{Name: "loadgen.throughput_per_s", Unit: "1/s", Better: "higher", Target: "ungated", On: serveWorkloads},
	{Name: "loadgen.late_ms.p99", Unit: "ms", Better: "lower", Target: "run", On: []string{wServeHot}},
	{Name: "loadgen.sent", Unit: "count", Better: "higher", Target: "run", On: serveWorkloads},
	{Name: "run.fail_frac", Unit: "share", Better: "lower", Target: "run", On: workloadNames},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Target: "run", On: workloadNames},
}

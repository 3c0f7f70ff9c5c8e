package main

// metricDef names one metric. The two lists below are the benchmark's
// vocabulary: BENCHMARK.json repeats them (benchmark_test.go checks the
// two agree), and every workload emits every name — an end-to-end metric
// is defined on each workload, a per-layer metric reads 0 where the
// workload never enters that layer.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are measured with tracing off. Each has one meaning per kind of
// workload:
//
//	                  pvwatts / matmult / shortestpath     serve-saturate                      serve-paced
//	latency_p50_ms    one run to fixpoint                  one 256-row put, send → ack         cycle due → Quiesce returned
//	tuples_per_s      live tuples ÷ fixpoint time          events ÷ (first put → Quiesce)      events made visible ÷ stage time (the schedule, unless it falls behind)
//	cpu_us_per_tuple  process CPU over the timed runs ÷ tuples (events) they handled
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"tuples_per_s", "1/s", "higher"},
	{"cpu_us_per_tuple", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are measured by the traced run only. Layer names are the
// repo's packages; README.md says which end-to-end metric each should
// move, and where it should not.
var perLayer = []metricDef{
	// core: the step loop, from RunStats under Options.PhaseStats.
	{"core.insert_ns_per_tuple", "ns", "lower"},
	{"core.merge_ns_per_tuple", "ns", "lower"},
	{"core.delta_ns_per_tuple", "ns", "lower"},
	{"core.boundary_frac", "ratio", "lower"},
	{"core.fire_ns_per_tuple", "ns", "lower"},
	{"core.mean_fire_chunk", "count", "higher"},
	{"core.dup_frac", "ratio", "lower"},
	{"core.steps", "count", "lower"},
	{"core.mean_step_tuples", "count", "higher"},
	// core: the session, timed in-process on the workload's own events.
	{"core.putbatch_ns_per_event", "ns", "lower"},
	{"core.quiesce_us", "us", "lower"},
	{"core.ingress_backlog_max", "count", "lower"},
	{"core.absorb_skew", "ratio", "lower"},
	// exec: the same work under every strategy exec.StrategyNames() lists.
	{"exec.strategies", "count", "lower"},
	{"exec.best_s", "s", "lower"},
	{"exec.worst_s", "s", "lower"},
	{"exec.best_over_default", "ratio", "higher"},
	// Standalone layer objects fed the workload's hottest table.
	{"gamma.insert_ns_per_tuple", "ns", "lower"},
	{"gamma.select_ns_per_query", "ns", "lower"},
	{"gamma.dump_ns_per_tuple", "ns", "lower"},
	{"delta.putsorted_ns_per_tuple", "ns", "lower"},
	{"delta.putbatch_ns_per_tuple", "ns", "lower"},
	{"delta.takemin_ns_per_tuple", "ns", "lower"},
	{"disruptor.publish_ns_per_event", "ns", "lower"},
	{"tuple.new_ns", "ns", "lower"},
	{"tuple.new_allocs", "count", "lower"},
	{"lang.compile_ms", "ms", "lower"},
	// serve: what the two service workloads show a client. The first five
	// are the service's own end-to-end figures; they sit here because an
	// end-to-end metric must exist on every workload and these do not.
	{"serve.ingest_events_per_s", "1/s", "higher"},
	{"serve.recover_s", "s", "lower"},
	{"serve.visibility_p50_ms", "ms", "lower"},
	{"serve.visibility_within_limit", "ratio", "higher"},
	{"serve.query_p50_ms", "ms", "lower"},
	{"serve.encode_ns_per_row", "ns", "lower"},
	{"serve.put_rtt_p50_us", "us", "lower"},
	{"serve.put_server_p50_us", "us", "lower"},
	{"serve.put_enqueue_p50_us", "us", "lower"},
	{"serve.codec_us", "us", "lower"},
	{"serve.http_us", "us", "lower"},
	{"serve.quiesce_rtt_p50_us", "us", "lower"},
	{"serve.quiesce_wait_p50_us", "us", "lower"},
	{"serve.query_rtt_p50_us", "us", "lower"},
	{"serve.poll_rtt_p50_us", "us", "lower"},
	{"serve.json_put_server_p50_us", "us", "lower"},
	{"serve.refused_429", "count", "lower"},
	{"serve.bytes_per_event", "B", "lower"},
	{"serve.notifications_per_cycle", "ratio", "higher"},
	{"serve.visibility_p99_ms", "ms", "lower"},
	{"serve.visibility_p999_ms", "ms", "lower"},
	{"serve.rate_low.visibility_p50_ms", "ms", "lower"},
	{"serve.rate_mid.visibility_p50_ms", "ms", "lower"},
	{"serve.rate_high.visibility_p50_ms", "ms", "lower"},
	{"serve.max_rate_within_limit", "1/s", "higher"},
	{"serve.gen_late_p99_ms", "ms", "lower"},
	// wal: the tenant's log, and a standalone log fed the same events.
	{"wal.append_ns_per_event", "ns", "lower"},
	{"wal.flush_ms_p50", "ms", "lower"},
	{"wal.bytes_per_event", "B", "lower"},
	{"wal.group_commits", "count", "lower"},
	{"wal.checkpoint_ms", "ms", "lower"},
	{"wal.open_recover_ms", "ms", "lower"},
	{"wal.restored_rows", "count", "lower"},
	{"wal.replayed_events", "count", "lower"},
	{"wal.on_over_off", "ratio", "higher"},
	// apps: the paper's Fig 6 ratio against the hand-coded program.
	{"apps.baseline_s", "s", "lower"},
	{"apps.vs_baseline", "ratio", "lower"},
	// The Go runtime, the host, and the cost of the traced run itself.
	{"runtime.allocs_per_tuple", "count", "lower"},
	{"runtime.alloc_bytes_per_tuple", "B", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"host.calib_ms", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// sizes freezes every input dimension. full is what BENCHMARK.json's
// numbers mean; tiny exists so the test can run each workload end to end
// in well under a second.
type sizes struct {
	PvYears    int // pvwatts: years of hourly records, unsorted
	MatN       int // matmult: N×N
	SpVertices int // shortestpath: vertices; extra edges = vertices, 4 gen tasks

	SatEvents int // serve-saturate: events per tenant, split over the clients
	SatRows   int // rows per binary frame
	// serve-paced: total cycles per second of the three stages, and rows
	// per cycle.
	PacedRates [3]int
	PacedRows  int

	Setups     int     // set-ups timed per run; the median is setup_s
	MinIters   int     // timed iterations at least, whatever -seconds says
	SampleKeys int     // keys re-queried by the serve correctness gate, per tenant
	ProbeCap   int     // tuples fed to the standalone layer probes at most
	LimitMs    float64 // serve-paced visibility limit
}

var fullSizes = sizes{
	PvYears: 20, MatN: 480, SpVertices: 100_000,
	SatEvents: 102_400, SatRows: 256,
	PacedRates: [3]int{50, 100, 200}, PacedRows: 64,
	Setups: 5, MinIters: 5, SampleKeys: 200, ProbeCap: 200_000, LimitMs: 10,
}

var tinySizes = sizes{
	PvYears: 1, MatN: 24, SpVertices: 400,
	SatEvents: 2048, SatRows: 256,
	PacedRates: [3]int{100, 200, 400}, PacedRows: 8,
	Setups: 1, MinIters: 1, SampleKeys: 20, ProbeCap: 2000, LimitMs: 10,
}

// clients is the load generator's width: two goroutines, two connections,
// whatever nproc says, so the generator's share of a small box is fixed.
const clients = 2

// workloadDef names a workload and records why it is in the set.
type workloadDef struct {
	Name, Why string
	run       func(*env) (*result, error)
}

var workloads = []workloadDef{
	{"pvwatts", "4 huge steps: Gamma flush, seal, merge and Delta bulk load dominate; exercises the step boundary", runPvwatts},
	{"matmult", "2 steps, all time in rule bodies and dense Gamma reads; bypasses the boundary, where a parallel strategy must win", runMatmult},
	{"shortestpath", "about 100 mid-size steps of ordered min-extraction with a hash probe per firing; Delta and Gamma used unlike pvwatts", runShortestpath},
	{"serve-saturate", "closed loop, 2 clients streaming 256-row frames into a durable tenant; large coalesced steps, boundary and WAL tee dominate", runServeSaturate},
	{"serve-paced", "open loop, 2 clients at fixed rates below capacity, put-quiesce-query-poll per cycle; tiny steps, per-request cost dominates", runServePaced},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

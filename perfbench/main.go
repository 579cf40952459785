// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the public API of the scheduler's layers
// (internal/campaign, sim, server, workload, core, des, dectrace,
// telemetry, health), checks that the outputs are correct, prints a
// readable table and ends with one JSON result line:
//
//	bash perfbench/run.sh --workload sim-100k --seed 3 --seconds 15 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics with every
// optional layer of instrumentation off. With --trace 1 it measures the
// per-layer breakdown instead: spans wrap the benchmark's own calls into
// each layer, a timing wrapper sits around the policy, and the spans are
// written to <out>/spans/ when the run ends. METRICS.md documents every
// metric, the layer-to-end-to-end mapping and the recorded held-out seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's contract with BENCHMARK.json; TestMetricTables keeps
// them in sync.
type metricDef struct {
	name, unit string
}

// endToEnd metrics are measured with tracing off and reported by every
// workload. "op" is the workload's unit of latency and "work" its unit of
// throughput (see workloadDef).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p90_us", "us"},
	{"mem_peak_mib", "MiB"},
}

// perLayer metrics come from the traced run. Counts and times marked "/op"
// are per operation of the workload (one cold sweep, one run, one observed
// cell, one request cycle). A layer the workload does not reach reports 0.
var perLayer = []metricDef{
	{"core.allocate_calls", "count/op"},
	{"core.allocate_s", "s/op"},
	{"core.allocate_ns_p50", "ns"},
	{"core.allocate_ns_p99", "ns"},
	{"sim.run_s", "s/op"},
	{"sim.events", "count/op"},
	{"sim.decision_points", "count/op"},
	{"sim.skip_ratio", "ratio"},
	{"sim.skipped_memo", "count/op"},
	{"sim.skipped_saturating", "count/op"},
	{"sim.skipped_single", "count/op"},
	{"workload.generate_s", "s/op"},
	{"campaign.expand_s", "s/op"},
	{"campaign.cache_put_s", "s/op"},
	{"campaign.cache_get_s", "s/op"},
	{"campaign.aggregate_s", "s/op"},
	{"campaign.parallel_eff", "ratio"},
	{"des.arm_drain_s", "s/op"},
	{"go.alloc_mib", "MiB/op"},
	{"go.mallocs", "count/op"},
	{"go.gc_cycles", "count/op"},
	{"go.gc_cpu_s", "s/op"},
	{"observe.telemetry_s", "s/op"},
	{"observe.health_s", "s/op"},
	{"observe.dectrace_s", "s/op"},
	{"dectrace.observe_s", "s/op"},
	{"dectrace.records", "count/op"},
	{"dectrace.bytes", "bytes/op"},
	{"telemetry.points", "count/op"},
	{"health.anomalies", "count/op"},
	{"client.dial_s", "s"},
	{"client.send_us_p50", "us"},
	{"client.grant_us_p99", "us"},
	{"server.rounds", "count/op"},
	{"server.skip_ratio", "ratio"},
	{"server.pushes_per_cycle", "ratio"},
	{"server.round_us_p50", "us"},
	{"server.round_us_p99", "us"},
	{"server.push_delay_us_p50", "us"},
	{"server.push_delay_us_p99", "us"},
	{"server.apply_us_p50", "us"},
	{"server.apply_us_p99", "us"},
	{"trace.overhead", "ratio"},
	{"trace.base_s", "s"},
}

// workloadDef is one named workload: run measures its end-to-end metrics,
// trace its per-layer metrics.
type workloadDef struct {
	name       string
	run, trace func(*env, *report) error
}

var workloads = []workloadDef{
	{"campaign-fig6", runCampaign, traceCampaign},
	{"sim-100k", runSim100k, traceSim100k},
	{"sim-observed", runObserved, traceObserved},
	{"daemon-tcp", runDaemon, traceDaemon},
}

// env carries the run's parameters to a workload.
type env struct {
	seed    int64
	seconds time.Duration
	// out is the directory for temporary files and span dumps.
	out string
	// tr records spans in traced runs; nil otherwise.
	tr *tracer
}

// report accumulates a workload's metrics, output checks and readable
// lines.
type report struct {
	metrics   map[string]float64
	attempted int
	failed    int
	lines     []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// set records a metric value.
func (r *report) set(name string, v float64) { r.metrics[name] = v }

// check counts one output check (or one operation), failing it when ok is
// false.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// linef adds one line to the readable table.
func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 15, "measurement window in seconds")
		trace   = flag.Int("trace", 0, "1 measures the per-layer breakdown instead of the end-to-end metrics")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// outDir holds the run's temporary files and span dumps, relative to the
// directory the benchmark runs in.
const outDir = ".bench_build"

func run(name string, seed int64, seconds, trace int) error {
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d, want >= 1", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace %d, want 0 or 1", trace)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	e := &env{seed: seed, seconds: time.Duration(seconds) * time.Second, out: tmp}
	rep := newReport()
	defs := endToEnd
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d GOMAXPROCS=%d %s\n",
		name, seed, seconds, trace, runtime.GOMAXPROCS(0), runtime.Version())
	if trace == 1 {
		defs = perLayer
		e.tr = newTracer()
		err = wl.trace(e, rep)
		if err == nil {
			path := filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
			err = e.tr.write(path)
			rep.linef("spans                 %d written to %s", len(e.tr.spans), path)
		}
	} else {
		err = wl.run(e, rep)
	}
	if err != nil {
		return err
	}
	rep.linef("%-21s %.4g (%d failed of %d checks and operations)", "error_rate",
		float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)
	for _, l := range rep.lines {
		fmt.Println(l)
	}

	res := jsonResult{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]jsonMetric{},
	}
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
		v, ok := rep.metrics[d.name]
		if !ok && trace == 0 {
			return fmt.Errorf("workload %s did not measure %s", name, d.name)
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	var unknown []string
	for k := range rep.metrics {
		if !known[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("workload %s reported metrics outside the table: %v", name, unknown)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d output checks failed", rep.failed, rep.attempted)
	}
	return nil
}

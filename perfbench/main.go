// Command perfbench is the repository benchmark. It drives the real
// public entry points — ecosystem.Generate → core.RunStream for scans,
// the dnsd daemon over loopback UDP for serving, ingest.File for dump
// ingestion — on inputs it generates from a seed, checks the outputs
// against the generator's ground truth, and prints one JSON result line.
//
// Usage (from the repository root, after building; see run.sh):
//
//	perfbench --workload scan-cached --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of an
// untraced run. With --trace 1 it carries the per-layer metrics of a
// traced run, which times the calls into each layer from this package
// (wrapped exchanger, handlers and sinks) next to an untraced run whose
// CPU cost gives the tracing overhead.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// metricDef names a metric and its unit; BENCHMARK.json declares the
// same (checked by TestMetricTablesMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload reports
// all of them; README.md gives each one's meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MB"},
	{"p50_ms", "ms"},
}

// perLayer are the metrics of a traced run. A workload that does not
// exercise a layer reports its metrics as 0.
var perLayer = []metricDef{
	{"exchange.count_per_zone", "count"},
	{"exchange.busy_us_per_zone", "us"},
	{"exchange.us_mean", "us"},
	{"exchange.errors_per_zone", "count"},
	{"exchange.bytes_per_zone", "bytes"},
	{"resolver.queries_per_zone", "count"},
	{"resolver.cache_hit_ratio", "ratio"},
	{"resolver.coalesced_per_zone", "count"},
	{"resolver.retries_per_zone", "count"},
	{"resolver.gave_up_per_zone", "count"},
	{"resolver.query_us_p50", "us"},
	{"resolver.query_us_p99", "us"},
	{"scan.self_us_per_zone", "us"},
	{"scan.peak_live", "count"},
	{"classify.us_per_zone", "us"},
	{"report.add_us_per_zone", "us"},
	{"report.render_ms", "ms"},
	{"export.us_per_zone", "us"},
	{"export.bytes_per_zone", "bytes"},
	{"server.handle_us_p50", "us"},
	{"server.handle_us_p99", "us"},
	{"server.miss_us_p50", "us"},
	{"server.outside_us_p50", "us"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.udp_dropped_ratio", "ratio"},
	{"zone.parse_s", "s"},
	{"zone.sign_s", "s"},
	{"gen.late_ms_p99", "ms"},
	{"ingest.records", "count"},
	{"ingest.targets", "count"},
	{"ingest.skipped.non_ns", "count"},
	{"ingest.skipped.glue", "count"},
	{"ingest.skipped.out_of_zone", "count"},
	{"ingest.skipped.apex", "count"},
	{"ingest.skipped.unregistrable", "count"},
	{"ingest.skipped.duplicate", "count"},
	{"ingest.skipped.bad_record", "count"},
	{"ingest.inflate_share", "ratio"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.allocs_per_zone", "count"},
	{"runtime.allocs_per_query", "count"},
	{"runtime.allocs_per_record", "count"},
	{"runtime.heap_peak_mb", "MB"},
	{"trace.overhead_cpu_us_per_op", "us"},
}

// config is what every workload receives.
type config struct {
	seed    int64
	budget  time.Duration // how long the measured phase runs
	trace   bool
	dnsd    string // path of the dnsd binary (serve-openloop)
	workDir string // scratch space inside the checkout
}

// outcome is one run's result. metrics holds end-to-end values for an
// untraced run and per-layer values for a traced one.
type outcome struct {
	attempted int
	failed    int
	correct   bool
	metrics   map[string]float64
	detail    map[string]any // printed as one JSON line before the result
}

func newOutcome() *outcome {
	return &outcome{correct: true, metrics: map[string]float64{}, detail: map[string]any{}}
}

// fail records n failed operations with the reason, making the run
// incorrect.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	o.correct = false
	msg := fmt.Sprintf(format, args...)
	fmt.Printf("FAIL %s\n", msg)
	fails, _ := o.detail["failures"].([]string)
	o.detail["failures"] = append(fails, msg)
}

type workload struct {
	name string
	run  func(ctx context.Context, cfg config) (*outcome, error)
}

var workloads = []workload{
	{"scan-cached", func(ctx context.Context, cfg config) (*outcome, error) { return runScan(ctx, cfg, false) }},
	{"scan-stateless", func(ctx context.Context, cfg config) (*outcome, error) { return runScan(ctx, cfg, true) }},
	{"serve-openloop", runServe},
	{"ingest-dump", runIngest},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: scan-cached|scan-stateless|serve-openloop|ingest-dump")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 20, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		dnsd    = flag.String("dnsd", ".bench_build/dnsd", "dnsd binary for serve-openloop")
		work    = flag.String("work", ".bench_build/work", "scratch directory for generated inputs and outputs")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *dnsd, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, dnsd, work string) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0|1")
	}
	dir := filepath.Join(work, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	st := stamp(seed)
	b, _ := json.Marshal(st)
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d\nstamp %s\n", name, seed, seconds, trace, b)

	cfg := config{seed: seed, budget: time.Duration(seconds) * time.Second, trace: trace == 1, dnsd: dnsd, workDir: dir}
	out, err := wl.run(context.Background(), cfg)
	if err != nil {
		return err
	}
	if out.attempted < 1 {
		return fmt.Errorf("no operations attempted")
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && !cfg.trace {
			return fmt.Errorf("workload did not measure %s", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	out.detail["stamp"] = st
	if b, err := json.Marshal(out.detail); err == nil {
		fmt.Printf("detail %s\n", b)
	}
	for k := range out.metrics {
		if _, declared := metrics[k]; !declared {
			return fmt.Errorf("workload measured undeclared metric %s", k)
		}
	}
	b, err = json.Marshal(map[string]any{
		"correct":   out.correct,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

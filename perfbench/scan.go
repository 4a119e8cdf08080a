package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"dnssecboot/internal/classify"
	"dnssecboot/internal/core"
	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/ecosystem"
	"dnssecboot/internal/obs"
	"dnssecboot/internal/report"
	"dnssecboot/internal/resolver"
	"dnssecboot/internal/scan"
	"dnssecboot/internal/transport"
)

// scanScale is the -scale of both scan workloads: 14 470 zones at seed 1.
const scanScale = 20000

// setupRepeats is how many times each workload repeats its set-up; the
// median is setup_s.
const setupRepeats = 3

// statusFor maps a zone's generated deployment state to the status the
// classifier must report (the mapping of the pipeline's ground-truth
// test).
var statusFor = map[ecosystem.State]classify.Status{
	ecosystem.StateUnsigned: classify.StatusUnsigned,
	ecosystem.StateSecured:  classify.StatusSecured,
	ecosystem.StateInvalid:  classify.StatusInvalid,
	ecosystem.StateIsland:   classify.StatusIsland,
}

// scanPass is what one full scan of the world measured.
type scanPass struct {
	zones    int
	wall     time.Duration
	cpu      time.Duration
	queries  int64   // wire queries (MemNetwork.Stats)
	bytes    int64   // wire bytes both ways
	ttr      latency // per-zone time to result, from the pass start
	bad      int     // unresolved or truth-mismatched zones
	hash     string
	peakLive int
	agg      *report.Aggregate
}

// layerTimes accumulates the traced run's per-call timings.
type layerTimes struct {
	classify, add, export time.Duration
	exportBytes           int64
}

// timedExchanger is the traced run's transport: it times every
// exchange the resolver makes through the world's in-memory network.
type timedExchanger struct {
	inner  transport.Exchanger
	count  atomic.Int64
	busyNS atomic.Int64
	errors atomic.Int64
}

func (t *timedExchanger) Exchange(ctx context.Context, server netip.AddrPort, q *dnswire.Message) (*dnswire.Message, error) {
	start := time.Now()
	resp, err := t.inner.Exchange(ctx, server, q)
	t.busyNS.Add(int64(time.Since(start)))
	t.count.Add(1)
	if err != nil {
		t.errors.Add(1)
	}
	return resp, err
}

// runScan measures one scan workload: stateless selects the pure
// per-zone mode whose JSONL dump is byte-reproducible.
func runScan(ctx context.Context, cfg config, stateless bool) (*outcome, error) {
	out := newOutcome()
	var world *ecosystem.Ecosystem
	var setup []float64
	for i := 0; i < setupRepeats; i++ {
		world = nil
		runtime.GC()
		start := time.Now()
		w, err := ecosystem.Generate(ecosystem.Config{Seed: cfg.seed, ScaleDivisor: scanScale})
		if err != nil {
			return nil, fmt.Errorf("generating world: %w", err)
		}
		setup = append(setup, time.Since(start).Seconds())
		world = w
	}
	runtime.GC()
	fmt.Printf("setup: ecosystem.Generate %s, %d zones\n", spreadOf(setup), len(world.Targets))

	dump := filepath.Join(cfg.workDir, "dump.jsonl")
	untracedBudget := cfg.budget
	if cfg.trace {
		untracedBudget = cfg.budget / 2
	}
	var plain []scanPass
	if err := repeatFor(untracedBudget, func() (time.Duration, error) {
		p, err := untracedPass(ctx, cfg, world, stateless, dump)
		plain = append(plain, p)
		return p.wall, err
	}); err != nil {
		return nil, err
	}
	var traced []scanPass
	var lt layerTimes
	var ex *timedExchanger
	reg := obs.NewRegistry()
	var rt0, rt1 runtimeStats
	var heapPeak float64
	if cfg.trace {
		heap := startHeapSampler(20 * time.Millisecond)
		rt0 = readRuntime()
		ex = &timedExchanger{inner: world.Net}
		if err := repeatFor(cfg.budget-untracedBudget, func() (time.Duration, error) {
			p, err := tracedPass(ctx, cfg, world, stateless, dump, ex, reg, &lt)
			traced = append(traced, p)
			return p.wall, err
		}); err != nil {
			return nil, err
		}
		rt1 = readRuntime()
		heapPeak = heap.Stop()
	}

	// Correctness gates: truth and resolution on every pass, and one dump
	// hash across every stateless pass, traced or not.
	all := append(append([]scanPass(nil), plain...), traced...)
	for i, p := range all {
		out.attempted += p.zones
		if p.zones != len(world.Targets) {
			out.fail(len(world.Targets)-p.zones, "pass %d emitted %d of %d zones", i, p.zones, len(world.Targets))
		}
		if p.bad > 0 {
			out.fail(p.bad, "pass %d: %d zones unresolved or not matching the generated truth", i, p.bad)
		}
		if stateless && p.hash != all[0].hash {
			out.fail(0, "pass %d dump sha256 %s differs from pass 0 %s", i, p.hash, all[0].hash)
		}
	}
	if stateless {
		fmt.Printf("dump sha256 %s (identical across %d passes)\n", all[0].hash, len(all))
		out.detail["dump_sha256"] = all[0].hash
	}
	headline := all[0].agg.Headline()
	for i, p := range all[1:] {
		if p.agg.Headline() != headline {
			out.fail(0, "pass %d report headline differs from pass 0", i+1)
		}
	}

	zps := spreadBy(plain, func(p scanPass) float64 { return float64(p.zones) / p.wall.Seconds() })
	cpu := spreadBy(plain, scanPass.cpuPerZone)
	qpz := spreadBy(plain, func(p scanPass) float64 { return float64(p.queries) / float64(p.zones) })
	p50 := spreadBy(plain, func(p scanPass) float64 { return p.ttr.P50 })
	p99 := spreadBy(plain, func(p scanPass) float64 { return p.ttr.P99 })
	fmt.Printf("zones_per_s %s\ncpu_us_per_zone %s\nqueries_per_zone %s\n", zps, cpu, qpz)
	fmt.Printf("zone time-to-result p50_ms %s, p99_ms %s (%d zones per pass)\n", p50, p99, len(world.Targets))
	out.detail["passes"] = len(plain)
	out.detail["queries_per_zone"] = qpz.Median
	out.detail["zones_per_s"] = zps
	out.detail["cpu_us_per_zone"] = cpu
	out.detail["setup_s"] = spreadOf(setup)

	if !cfg.trace {
		out.metrics["setup_s"] = median(setup)
		out.metrics["throughput_per_s"] = zps.Median
		out.metrics["cpu_us_per_op"] = cpu.Median
		out.metrics["peak_rss_mb"] = peakRSSMB()
		out.metrics["p50_ms"] = p50.Median
		return out, nil
	}

	var zones int
	var wall, cpuT time.Duration
	var peakLive int
	for _, p := range traced {
		zones += p.zones
		wall += p.wall
		cpuT += p.cpu
		peakLive = max(peakLive, p.peakLive)
	}
	z := float64(zones)
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / z }
	busy := time.Duration(ex.busyNS.Load())
	count := ex.count.Load()
	snap := reg.Snapshot()
	hits, misses := snap.Counters[resolver.MetricCacheHits], snap.Counters[resolver.MetricCacheMisses]
	qh := snap.Histograms[resolver.MetricQuerySeconds]
	var bytes int64
	for _, p := range traced {
		bytes += p.bytes
	}
	render, err := renderAll(traced[len(traced)-1].agg)
	if err != nil {
		return nil, err
	}
	tracedCPU := spreadBy(traced, scanPass.cpuPerZone)
	m := out.metrics
	// Counts are per traced zone: how many passes fit the time depends on
	// the program's speed.
	m["exchange.count_per_zone"] = float64(count) / z
	m["exchange.busy_us_per_zone"] = us(busy)
	m["exchange.us_mean"] = float64(busy.Nanoseconds()) / 1e3 / float64(max(count, 1))
	m["exchange.errors_per_zone"] = float64(ex.errors.Load()) / z
	m["exchange.bytes_per_zone"] = float64(bytes) / z
	m["resolver.queries_per_zone"] = float64(snap.Counters[resolver.MetricQueries]) / z
	m["resolver.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["resolver.coalesced_per_zone"] = float64(snap.Counters[resolver.MetricCoalesced]) / z
	m["resolver.retries_per_zone"] = float64(snap.Counters[resolver.MetricRetries]) / z
	m["resolver.gave_up_per_zone"] = float64(snap.Counters[resolver.MetricGaveUp]) / z
	m["resolver.query_us_p50"] = qh.P50 * 1e6
	m["resolver.query_us_p99"] = qh.P99 * 1e6
	m["scan.self_us_per_zone"] = us(cpuT - busy - lt.classify - lt.add - lt.export)
	m["scan.peak_live"] = float64(peakLive)
	m["classify.us_per_zone"] = us(lt.classify)
	m["report.add_us_per_zone"] = us(lt.add)
	m["report.render_ms"] = float64(render.Nanoseconds()) / 1e6
	m["export.us_per_zone"] = us(lt.export)
	m["export.bytes_per_zone"] = float64(lt.exportBytes) / z
	m["runtime.gc_cpu_fraction"] = (rt1.gcCPU - rt0.gcCPU) / (rt1.totalCPU - rt0.totalCPU)
	m["runtime.allocs_per_zone"] = float64(rt1.allocs-rt0.allocs) / z
	m["runtime.heap_peak_mb"] = heapPeak
	m["trace.overhead_cpu_us_per_op"] = tracedCPU.Median - cpu.Median

	base := cpuT.Seconds()
	fmt.Printf("traced: %d passes, %d zones, %.2f CPU-s over %.2f wall-s\n", len(traced), zones, base, wall.Seconds())
	fmt.Printf("exchange busy %.3f s of %.3f CPU-s (%.1f%%), %d exchanges, %d errors, %d query histogram samples\n",
		busy.Seconds(), base, 100*busy.Seconds()/base, count, ex.errors.Load(), qh.Count)
	for _, l := range []struct {
		name string
		d    time.Duration
	}{{"classify", lt.classify}, {"report.add", lt.add}, {"export", lt.export}} {
		fmt.Printf("%s %.3f s of %.3f CPU-s (%.1f%%)\n", l.name, l.d.Seconds(), base, 100*l.d.Seconds()/base)
	}
	fmt.Printf("runtime.gc_cpu_fraction %.3f of %.3f runtime CPU-s\n", rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU)
	fmt.Printf("resolver.cache_hit_ratio %d hits of %d lookups\n", hits, hits+misses)
	fmt.Printf("trace overhead: cpu_us_per_zone traced %s vs untraced %s\n", tracedCPU, cpu)
	return out, nil
}

// cpuPerZone is the pass's process CPU per zone in microseconds.
func (p scanPass) cpuPerZone() float64 { return float64(p.cpu.Nanoseconds()) / 1e3 / float64(p.zones) }

// emitFunc receives each zone's observation and classification in
// target order.
type emitFunc func(zo *scan.ZoneObservation, r *classify.Result) error

// scanOnce times one scan of the whole world. scanAll runs the scan,
// handing every zone to emit, which records its time to result, checks
// it against the generated truth and appends it to the JSONL dump,
// timing the export when lt is not nil. Like every pass it starts from
// a collected heap, as a fresh dnssec-scan process does after
// generating its world, so no pass pays for its predecessor's garbage.
func scanOnce(world *ecosystem.Ecosystem, stateless bool, dump string, lt *layerTimes,
	scanAll func(emit emitFunc) (zones, peakLive int, agg *report.Aggregate, err error)) (scanPass, error) {
	runtime.GC()
	f, err := os.Create(dump)
	if err != nil {
		return scanPass{}, err
	}
	defer f.Close()
	jw := scan.NewJSONLWriter(f)
	var p scanPass
	emitted := make([]float64, 0, len(world.Targets))
	q0, out0, in0 := world.Net.Stats()
	cpu0 := processCPU()
	start := time.Now()
	p.zones, p.peakLive, p.agg, err = scanAll(func(zo *scan.ZoneObservation, r *classify.Result) error {
		emitted = append(emitted, float64(time.Since(start).Nanoseconds())/1e6)
		p.bad += truthMismatch(world, r)
		if lt == nil {
			return jw.Write(zo)
		}
		t0, b0 := time.Now(), jw.Bytes()
		err := jw.Write(zo)
		lt.export += time.Since(t0)
		lt.exportBytes += jw.Bytes() - b0
		return err
	})
	if err != nil {
		return scanPass{}, fmt.Errorf("scan: %w", err)
	}
	if err := jw.Flush(); err != nil {
		return scanPass{}, err
	}
	p.wall = time.Since(start)
	p.cpu = processCPU() - cpu0
	q1, out1, in1 := world.Net.Stats()
	p.queries, p.bytes = q1-q0, (out1-out0)+(in1-in0)
	if err := f.Close(); err != nil {
		return scanPass{}, err
	}
	if p.ttr, err = summarize(emitted); err != nil {
		return scanPass{}, fmt.Errorf("zone time-to-result: %w", err)
	}
	if stateless {
		if p.hash, err = fileSHA256(dump); err != nil {
			return scanPass{}, err
		}
	}
	return p, nil
}

// untracedPass scans the whole world exactly as cmd/dnssec-scan does:
// core.RunStream with a JSONL dump sink.
func untracedPass(ctx context.Context, cfg config, world *ecosystem.Ecosystem, stateless bool, dump string) (scanPass, error) {
	return scanOnce(world, stateless, dump, nil, func(emit emitFunc) (int, int, *report.Aggregate, error) {
		study, err := core.RunStream(ctx, core.StreamOptions{
			Options: core.Options{
				Seed:        cfg.seed,
				World:       world,
				Concurrency: runtime.NumCPU(),
				Stateless:   stateless,
			},
			Sink: func(_ int, zo *scan.ZoneObservation, r *classify.Result) error { return emit(zo, r) },
		})
		if err != nil {
			return 0, 0, nil, err
		}
		return study.Scanned, study.PeakLive, study.Report, nil
	})
}

// tracedPass scans the world through the same layers core.RunStream
// wires (core.NewScanner's resolver and scanner configuration), but with
// a timing exchanger under the resolver, a registry on the resolver and
// timed classify, aggregate and export calls in the sink.
func tracedPass(ctx context.Context, cfg config, world *ecosystem.Ecosystem, stateless bool, dump string,
	ex *timedExchanger, reg *obs.Registry, lt *layerTimes) (scanPass, error) {
	return scanOnce(world, stateless, dump, lt, func(emit emitFunc) (int, int, *report.Aggregate, error) {
		r := &resolver.Resolver{Net: ex, Roots: world.Roots, Obs: resolver.NewMetrics(reg)}
		if stateless {
			r.Stateless = true
		} else {
			r.Cache = resolver.NewCache(0)
		}
		scanner := scan.New(scan.Config{
			Resolver:         r,
			Now:              world.Now,
			Concurrency:      runtime.NumCPU(),
			SampleSuffixes:   world.CloudflareSuffixes,
			FullScanFraction: 0.05,
			ProbeSignals:     true,
			TrustAnchor:      world.TrustAnchor,
			Seed:             cfg.seed,
			Stateless:        stateless,
		})
		classifier := classify.New(world.Now)
		agg := report.NewAggregate()
		res, err := scanner.ScanStream(ctx, world.Targets, scan.StreamOptions{
			Sink: func(_ int, zo *scan.ZoneObservation) error {
				t0 := time.Now()
				r := classifier.Classify(zo)
				t1 := time.Now()
				agg.Add(r)
				lt.classify += t1.Sub(t0)
				lt.add += time.Since(t1)
				return emit(zo, r)
			},
		})
		return res.Next, res.PeakLive, agg, err
	})
}

// truthMismatch is 1 when a zone failed to resolve or its status is not
// the one its generated state implies.
func truthMismatch(world *ecosystem.Ecosystem, r *classify.Result) int {
	t := world.Truth[r.Zone]
	if t == nil || r.Status == classify.StatusUnresolved || r.Status != statusFor[t.Spec.State] {
		return 1
	}
	return 0
}

// renderAll times producing every table, figure and CSV of the report
// once, as dnssec-scan -out all -csv-dir does.
func renderAll(a *report.Aggregate) (time.Duration, error) {
	start := time.Now()
	w := bufio.NewWriter(io.Discard)
	for _, s := range []string{a.Headline(), a.Table1(20), a.Table2(20), a.Table3(), a.Figure1(), a.CDSFindings(), a.QueryStats()} {
		w.WriteString(s)
	}
	for _, art := range []string{"table1", "table2", "table3", "figure1"} {
		if err := a.WriteCSV(w, art); err != nil {
			return 0, err
		}
	}
	return time.Since(start), w.Flush()
}

func ratio(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

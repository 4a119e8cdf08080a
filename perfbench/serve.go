package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/obs"
	"dnssecboot/internal/server"
	"dnssecboot/internal/transport"
	"dnssecboot/internal/zone"
)

// ladder is the open-loop offered rates, queries per second, from light
// load to a moderate one. It stays below the rates at which a stall of a
// shared machine overflows the server's 1024-query receive queue: on a
// 2-core machine, rungs from about 32000/s on lost queries at random, so
// an open-loop rate cannot measure capacity without failing queries.
var ladder = []int{2000, 5000, 8000, 10000, 12000}

// Capacity is measured closed-loop instead: saturationWindows windows,
// each keeping closedWindow queries outstanding per socket; the median
// window's answered rate is the throughput.
const (
	saturationWindows = 10
	closedWindow      = 64
)

// middleRate is the ladder's middle rate, at which latency and CPU per
// query are measured over several windows after the ladder.
const middleRate = 8000

// windows is how many equal windows the middle-rate phase is split
// into; latency and CPU per query are medians over them, so one stall
// of a shared machine moves a single window, not the run's figure.
const windows = 10

// The response cache's hit ratio under the query mix must lie within
// these bounds, or the workload no longer loads both the cache's hit
// path and its miss path (0.88 at seeds 1 and 2).
const minHitRatio, maxHitRatio = 0.5, 0.98

// daemon is a dnsd child process.
type daemon struct {
	cmd  *exec.Cmd
	addr netip.AddrPort
	done chan struct{}
	err  error // cmd.Wait's result, valid once done is closed
}

// startDaemon starts dnsd on an ephemeral loopback port serving the
// zone file signed in memory, and returns once the daemon has published
// its address, with the time that took.
func startDaemon(bin, dir, zonePath string) (*daemon, time.Duration, error) {
	addrPath := filepath.Join(dir, "dnsd.addr")
	os.Remove(addrPath)
	logf, err := os.Create(filepath.Join(dir, "dnsd.log"))
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	d := &daemon{done: make(chan struct{})}
	d.cmd = exec.Command(bin, "-listen", "127.0.0.1:0", "-addr-file", addrPath, "-sign", "-cache-entries", "4096", zonePath)
	d.cmd.Stderr = logf
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting dnsd: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	for {
		if b, err := os.ReadFile(addrPath); err == nil && len(b) > 0 {
			took := time.Since(start)
			if d.addr, err = netip.ParseAddrPort(strings.TrimSpace(string(b))); err != nil {
				d.kill()
				return nil, 0, fmt.Errorf("dnsd address %q: %w", b, err)
			}
			return d, took, nil
		}
		select {
		case <-d.done:
			err := d.err
			if err == nil {
				err = errors.New("exit status 0")
			}
			return nil, 0, fmt.Errorf("dnsd exited before listening (see %s): %w", logf.Name(), err)
		case <-time.After(time.Millisecond):
		}
		if time.Since(start) > time.Minute {
			d.kill()
			return nil, 0, errors.New("dnsd did not publish its address within a minute")
		}
	}
}

// stop drains the daemon with SIGTERM and returns its resource usage;
// dnsd exits 0 only after a clean drain.
func (d *daemon) stop() (*syscall.Rusage, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return nil, err
	}
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("dnsd did not drain within 30s")
	}
	if d.err != nil {
		return nil, fmt.Errorf("dnsd drain: %w", d.err)
	}
	ru, _ := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return ru, nil
}

// kill ends the daemon without a drain and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
}

// step is one fixed-rate period of a serving run.
type step struct {
	r         *rung
	serverCPU time.Duration // the server's CPU, when it runs in a child
	genCPU    time.Duration // this process's CPU
}

// serving is one schedule against one server: a warm-up at the middle
// rate, the ladder, the middle-rate windows, then the saturation windows.
type serving struct {
	warm       *step
	ladder     []*step
	windows    []*step
	saturation []*step
	// peakRSS is the server's RSS high-water mark once it has run
	// saturated, in MiB (0 for an in-process server).
	peakRSS float64
}

// runServing runs the schedule within budget: 5% warm-up, 25% ladder,
// 50% middle-rate windows, then 20% saturation, last so that the
// middle-rate windows find server and generator as a light load leaves
// them. pid, when not 0, is the server's process, whose CPU and memory
// are read; around, when non-nil, is called before and after each
// middle-rate window.
func runServing(addr netip.AddrPort, z *serveZone, seed int64, budget time.Duration,
	pid int, around func(after bool)) (*serving, error) {
	stream := 0
	// measure runs one step, closed-loop when rate is 0.
	measure := func(rate int, d time.Duration, qs []query) (*step, error) {
		var s0 time.Duration
		if pid != 0 {
			var err error
			if s0, err = childCPU(pid); err != nil {
				return nil, err
			}
		}
		g0 := processCPU()
		var r *rung
		var err error
		if rate == 0 {
			r, err = runClosed(addr, runtime.NumCPU(), closedWindow, qs, d)
		} else {
			r, err = runRung(addr, rate, runtime.NumCPU(), qs)
		}
		if err != nil {
			return nil, err
		}
		st := &step{r: r, genCPU: processCPU() - g0}
		if pid != 0 {
			s1, err := childCPU(pid)
			if err != nil {
				return nil, err
			}
			st.serverCPU = s1 - s0
		}
		return st, nil
	}
	run := func(rate int, d time.Duration) (*step, error) {
		st, err := measure(rate, d, z.queries(seed, stream, int(float64(rate)*d.Seconds())))
		stream++
		if err != nil {
			return nil, err
		}
		r := st.r
		l, err := r.summary()
		if err != nil {
			return nil, fmt.Errorf("%d/s for %v: %w", rate, d, err)
		}
		fmt.Printf("%5d/s: %d sent, %d answered, %d wrong, p50 %.3f ms, p99 %.3f ms (%d above), generator late p99 %.3f ms, backlog %v\n",
			rate, r.sent, r.answered, r.wrong, l.P50, l.P99, l.Above99, percentileOf(r.lateMS, 0.99), r.backlog)
		return st, nil
	}
	sv := &serving{}
	var err error
	if sv.warm, err = run(middleRate, budget/20); err != nil {
		return nil, err
	}
	for _, rate := range ladder {
		st, err := run(rate, budget/4/time.Duration(len(ladder)))
		if err != nil {
			return nil, err
		}
		sv.ladder = append(sv.ladder, st)
	}
	for i := 0; i < windows; i++ {
		if around != nil {
			around(false)
		}
		st, err := run(middleRate, budget/2/windows)
		if err != nil {
			return nil, err
		}
		if around != nil {
			around(true)
		}
		sv.windows = append(sv.windows, st)
	}
	sockets := runtime.NumCPU()
	for i := 0; i < saturationWindows; i++ {
		// As many queries as the 16-bit IDs allow; a window answers a
		// fraction of them.
		st, err := measure(0, budget/5/saturationWindows, z.queries(seed, stream, sockets<<16-1))
		stream++
		if err != nil {
			return nil, err
		}
		r := st.r
		fmt.Printf("saturated, %d outstanding: %d answered in %.3f s (%.0f/s), %d wrong, %d unanswered\n",
			closedWindow*sockets, r.answered, r.wall.Seconds(), r.throughput(), r.wrong, r.timeouts())
		sv.saturation = append(sv.saturation, st)
	}
	if pid != 0 {
		if sv.peakRSS, err = childPeakRSSMB(pid); err != nil {
			return nil, err
		}
	}
	return sv, nil
}

func percentileOf(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, q)
}

// throughput is the rung's answered queries per wall second.
func (r *rung) throughput() float64 { return float64(r.answered) / r.wall.Seconds() }

// maxQPS is the median saturation window's answered rate.
func (sv *serving) maxQPS() spread {
	var v []float64
	for _, st := range sv.saturation {
		v = append(v, st.r.throughput())
	}
	return spreadOf(v)
}

// middleStats summarises the middle-rate windows: the spread over them
// of each window's p50, p99, generator lateness p99 and CPU per answered
// query.
type middleStats struct {
	P50, P99, LateP99 spread
	ServerCPU, GenCPU spread // µs per answered query
	Answered          int
}

func (sv *serving) middle() (middleStats, error) {
	var p50, p99, late, srv, gen []float64
	var ms middleStats
	for _, st := range sv.windows {
		l, err := st.r.summary()
		if err != nil {
			return ms, err
		}
		n := float64(max(st.r.answered, 1))
		p50 = append(p50, l.P50)
		p99 = append(p99, l.P99)
		late = append(late, percentileOf(st.r.lateMS, 0.99))
		srv = append(srv, float64(st.serverCPU.Nanoseconds())/1e3/n)
		gen = append(gen, float64(st.genCPU.Nanoseconds())/1e3/n)
		ms.Answered += st.r.answered
	}
	ms.P50, ms.P99, ms.LateP99 = spreadOf(p50), spreadOf(p99), spreadOf(late)
	ms.ServerCPU, ms.GenCPU = spreadOf(srv), spreadOf(gen)
	return ms, nil
}

// steps is every step of the schedule in order.
func (sv *serving) steps() []*step {
	steps := append([]*step{sv.warm}, sv.ladder...)
	return append(append(steps, sv.windows...), sv.saturation...)
}

// account adds every query of the schedule to the outcome, failing
// every timeout and wrong answer.
func (sv *serving) account(out *outcome, label string) {
	for _, st := range sv.steps() {
		r := st.r
		out.attempted += r.sent
		if r.wrong > 0 {
			out.fail(r.wrong, "%s at %d/s: %d wrong answers", label, r.rate, r.wrong)
		}
		if t := r.timeouts(); t > 0 {
			out.failed += t
			fmt.Printf("%s at %d/s: %d queries unanswered after %v\n", label, r.rate, t, answerTimeout)
		}
	}
}

// runServe measures the dnsd daemon under the open-loop schedule. The
// traced run measures dnsd's wiring built in this process instead (see
// serveTraced).
func runServe(ctx context.Context, cfg config) (*outcome, error) {
	out := newOutcome()
	z := buildServeZone(cfg.seed)
	if cfg.trace {
		return out, serveTraced(ctx, cfg, out, &z)
	}
	zonePath := filepath.Join(cfg.workDir, strings.TrimSuffix(z.origin, ".")+".db")
	if err := os.WriteFile(zonePath, z.text, 0o644); err != nil {
		return nil, err
	}
	var setup []float64
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			// A set-up-only daemon is killed, not drained: dnsd publishes
			// its address before it installs its SIGTERM handler, so an
			// immediate SIGTERM can find the default action still in place.
			d.kill()
		}
		var took time.Duration
		var err error
		if d, took, err = startDaemon(cfg.dnsd, cfg.workDir, zonePath); err != nil {
			return nil, err
		}
		setup = append(setup, took.Seconds())
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	fmt.Printf("setup: dnsd start to published address (parse + sign %d names) %s\n", serveNames, spreadOf(setup))

	pid := d.cmd.Process.Pid
	sv, err := runServing(d.addr, &z, cfg.seed, cfg.budget, pid, nil)
	if err != nil {
		return nil, err
	}
	ru, err := d.stop()
	d = nil
	if err != nil {
		return nil, err
	}
	fmt.Printf("dnsd peak RSS %.1f MB once saturated, %.1f MB by exit\n", sv.peakRSS, float64(ru.Maxrss)/1024)
	sv.account(out, "dnsd")
	ms, err := sv.middle()
	if err != nil {
		return nil, err
	}
	qps := sv.maxQPS()
	fmt.Printf("max_qps %s\nat %d/s over %d windows: p50_ms %s\np99_ms %s\ndnsd cpu_us_per_query %s\ngenerator cpu_us_per_query %s\ngenerator late p99 ms %s\n",
		qps, middleRate, windows, ms.P50, ms.P99, ms.ServerCPU, ms.GenCPU, ms.LateP99)
	out.detail["middle"] = ms
	out.detail["max_qps"] = qps
	out.detail["setup_s"] = spreadOf(setup)
	out.metrics["setup_s"] = median(setup)
	out.metrics["throughput_per_s"] = qps.Median
	out.metrics["cpu_us_per_op"] = ms.ServerCPU.Median
	out.metrics["peak_rss_mb"] = sv.peakRSS
	out.metrics["p50_ms"] = ms.P50.Median
	return out, nil
}

// timedHandler records how long each call into the wrapped handler took.
type timedHandler struct {
	h  transport.Handler
	mu sync.Mutex
	us []float64
}

func (t *timedHandler) HandleDNS(ctx context.Context, local netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
	start := time.Now()
	m, err := t.h.HandleDNS(ctx, local, q)
	d := float64(time.Since(start).Nanoseconds()) / 1e3
	t.mu.Lock()
	t.us = append(t.us, d)
	t.mu.Unlock()
	return m, err
}

// take returns and clears the recorded durations.
func (t *timedHandler) take() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	us := t.us
	t.us = nil
	return us
}

// serveTraced builds dnsd's wiring in this process (zone.Parse and
// Sign, server.Server under a CachedHandler behind server.ListenConfig)
// and runs the schedule twice on half the budget each: plainly, then
// with timing wrappers around the cached handler and the inner server.
// Generator and server share the process in both, so the difference in
// CPU per query between the two is the tracing overhead.
func serveTraced(ctx context.Context, cfg config, out *outcome, z *serveZone) error {
	start := time.Now()
	zn, err := zone.Parse(bytes.NewReader(z.text), z.origin)
	if err != nil {
		return err
	}
	parse := time.Since(start)
	start = time.Now()
	if err := zn.GenerateKeys(zone.SignConfig{}, nil); err != nil {
		return err
	}
	if err := zn.Sign(zone.SignConfig{}); err != nil {
		return err
	}
	sign := time.Since(start)
	srv := server.New(1)
	srv.AddZone(zn)
	budget := cfg.budget / 2

	// serve runs the schedule against h behind dnsd's listener settings.
	serve := func(h transport.Handler, reg *obs.Registry, around func(after bool)) (*serving, error) {
		l, err := server.ListenConfig("127.0.0.1:0", h, server.Config{IdleTimeout: 2 * time.Minute, Metrics: reg})
		if err != nil {
			return nil, err
		}
		defer l.Close()
		sv, err := runServing(l.Addr(), z, cfg.seed, budget, 0, around)
		if err != nil {
			return nil, err
		}
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		if err := l.Shutdown(sctx); err != nil {
			return nil, fmt.Errorf("in-process server drain: %w", err)
		}
		return sv, nil
	}
	var plainCPU, cpu0 time.Duration
	plain, err := serve(&server.CachedHandler{Inner: srv, Cache: server.NewCache(4096, obs.NewRegistry())}, nil, func(after bool) {
		if !after {
			cpu0 = processCPU()
			return
		}
		plainCPU += processCPU() - cpu0
	})
	if err != nil {
		return err
	}
	plain.account(out, "in-process untraced")
	pm, err := plain.middle()
	if err != nil {
		return err
	}
	untracedCPU := float64(plainCPU.Nanoseconds()) / 1e3 / float64(max(pm.Answered, 1))

	reg := obs.NewRegistry()
	inner := &timedHandler{h: srv}
	outer := &timedHandler{h: &server.CachedHandler{Inner: inner, Cache: server.NewCache(4096, reg)}}
	heap := startHeapSampler(20 * time.Millisecond)
	var handle, miss []float64
	var rt0, rt runtimeStats
	var cpu time.Duration
	sv, err := serve(outer, reg, func(after bool) {
		if !after {
			outer.take()
			inner.take()
			rt0, cpu0 = readRuntime(), processCPU()
			return
		}
		cpu += processCPU() - cpu0
		r1 := readRuntime()
		rt.gcCPU += r1.gcCPU - rt0.gcCPU
		rt.totalCPU += r1.totalCPU - rt0.totalCPU
		rt.allocs += r1.allocs - rt0.allocs
		handle = append(handle, outer.take()...)
		miss = append(miss, inner.take()...)
	})
	heapPeak := heap.Stop()
	if err != nil {
		return err
	}
	sv.account(out, "in-process traced")

	ms, err := sv.middle()
	if err != nil {
		return err
	}
	h, err := summarize(handle)
	if err != nil {
		return fmt.Errorf("handler timings: %w", err)
	}
	sort.Float64s(miss)
	snap := reg.Snapshot()
	hits, misses := snap.Counters["server.cache.hits"], snap.Counters["server.cache.misses"]
	answered := float64(max(ms.Answered, 1))
	tracedCPU := float64(cpu.Nanoseconds()) / 1e3 / answered

	m := out.metrics
	m["server.handle_us_p50"] = h.P50
	m["server.handle_us_p99"] = h.P99
	m["server.miss_us_p50"] = percentile(miss, 0.5)
	m["server.outside_us_p50"] = ms.P50.Median*1e3 - h.P50
	m["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	var sent int64
	for _, st := range sv.steps() {
		sent += int64(st.r.sent)
	}
	m["server.udp_dropped_ratio"] = ratio(snap.Counters["server.udp.dropped"], sent)
	m["zone.parse_s"] = parse.Seconds()
	m["zone.sign_s"] = sign.Seconds()
	m["gen.late_ms_p99"] = ms.LateP99.Median
	m["runtime.gc_cpu_fraction"] = rt.gcCPU / rt.totalCPU
	m["runtime.allocs_per_query"] = float64(rt.allocs) / answered
	m["runtime.heap_peak_mb"] = heapPeak
	m["trace.overhead_cpu_us_per_op"] = tracedCPU - untracedCPU

	fmt.Printf("traced at %d/s: client p50 %.3f ms; handler p50 %.2f us, p99 %.2f us over %d calls; %d cache misses reached the server, p50 %.2f us\n",
		middleRate, ms.P50.Median, h.P50, h.P99, h.N, len(miss), percentile(miss, 0.5))
	fmt.Printf("server.cache_hit_ratio %d hits of %d lookups over the whole schedule\n", hits, hits+misses)
	// The workload exists to load both the cache's hit and miss paths.
	if hr := ratio(hits, hits+misses); hr < minHitRatio || hr > maxHitRatio {
		out.fail(0, "server cache hit ratio %.3f outside [%.2f, %.2f]: the mix no longer loads both cache paths", hr, minHitRatio, maxHitRatio)
	}
	fmt.Printf("runtime.gc_cpu_fraction %.3f of %.3f runtime CPU-s at the middle rate (server and generator share the process)\n",
		rt.gcCPU, rt.totalCPU)
	fmt.Printf("zone.parse_s %.4f, zone.sign_s %.4f for %d names\n", parse.Seconds(), sign.Seconds(), serveNames)
	fmt.Printf("trace overhead: %.2f us CPU/query traced vs %.2f untraced at %d/s (server and generator in one process)\n", tracedCPU, untracedCPU, middleRate)
	return nil
}

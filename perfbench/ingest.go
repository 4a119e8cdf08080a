package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dnssecboot/internal/ingest"
	"dnssecboot/internal/obs"
)

// dumpDomains is the number of registrable domains the ingest dump
// delegates; with their extra NS, glue, DS and planted noise the dump
// holds about 600 k records.
const dumpDomains = 125000

var skipReasons = []string{
	ingest.SkipNonNS, ingest.SkipGlue, ingest.SkipOutOfZone, ingest.SkipApex,
	ingest.SkipUnregistrable, ingest.SkipDuplicate, ingest.SkipBadRecord,
}

// dumpTruth is what the generator planted: the ingest result must match
// it exactly.
type dumpTruth struct {
	records     int            // lines that parse as a record
	targets     int            // registrable delegated domains
	targetsHash string         // sha256 of the targets, one per line, in first-seen order
	skipped     map[string]int // per ingest skip reason
}

var syllables = []string{"ka", "lo", "mi", "ne", "ra", "su", "ti", "vo", "zen", "bar", "cor", "dal", "fen", "gri", "hol", "jup"}

// writeDump writes a TLD-style master file for "uk." derived from seed:
// delegations with one to four NS records (repeated owners written with
// blank-owner continuation), in-bailiwick glue, DS sets, deeper
// delegations, and every few thousand domains an out-of-zone NS, an NS
// at a public suffix and an unparseable line. It returns the planted
// truth.
func writeDump(w io.Writer, seed int64) (dumpTruth, error) {
	rng := rand.New(rand.NewSource(seed))
	bw := bufio.NewWriterSize(w, 1<<16)
	th := sha256.New()
	t := dumpTruth{skipped: map[string]int{}}
	rec := func(reason string, format string, args ...any) {
		fmt.Fprintf(bw, format+"\n", args...)
		t.records++
		if reason != "" {
			t.skipped[reason]++
		}
	}
	fmt.Fprintf(bw, "; synthetic uk. delegation dump, seed %d\n$ORIGIN uk.\n$TTL 172800\n", seed)
	rec(ingest.SkipNonNS, "@\tIN\tSOA\tnsa.nic.uk. hostmaster.nic.uk. (\n\t\t%d ; serial\n\t\t900 900 2419200 10800 )", 1000+seed)
	rec(ingest.SkipApex, "@\tIN\tNS\tnsa.nic.uk.")
	rec(ingest.SkipApex, "\tIN\tNS\tnsb.nic.uk.")
	rec(ingest.SkipGlue, "nsa.nic\tIN\tA\t156.154.100.3")
	rec(ingest.SkipGlue, "nsb.nic\tIN\tAAAA\t2001:502:ad09::3")
	for i := 0; i < dumpDomains; i++ {
		label := syllables[rng.Intn(len(syllables))] + syllables[rng.Intn(len(syllables))] + fmt.Sprint(i)
		owner := label // relative to $ORIGIN uk.
		if rng.Intn(5) == 0 {
			owner = label + ".co"
		}
		addTarget(th, &t, owner+".uk.")
		inBailiwick := rng.Intn(2) == 0
		provider := rng.Intn(400)
		nNS := 1 + rng.Intn(4)
		for k := 0; k < nNS; k++ {
			o := owner
			if k > 0 {
				o = "" // blank owner: continues the previous one
			}
			reason := ""
			if k > 0 {
				reason = ingest.SkipDuplicate
			}
			if inBailiwick {
				rec(reason, "%s\t86400\tIN\tNS\tns%d.%s", o, k+1, owner)
			} else {
				rec(reason, "%s\tIN\tNS\tns%d.provider%d.com.", o, k+1, provider)
			}
		}
		if inBailiwick {
			for k := 0; k < nNS; k++ {
				rec(ingest.SkipGlue, "ns%d.%s\tIN\tA\t10.%d.%d.%d", k+1, owner, i>>16&255, i>>8&255, i&255)
				if rng.Intn(2) == 0 {
					rec(ingest.SkipGlue, "ns%d.%s\tIN\tAAAA\t2001:db8:%x:%x::%x", k+1, owner, i>>16, i&0xffff, k+1)
				}
			}
		}
		if rng.Intn(4) == 0 {
			for k := 0; k < 1+rng.Intn(2); k++ {
				rec(ingest.SkipNonNS, "%s\tIN\tDS\t%d 13 2 %064x", owner, 10000+i%50000, rng.Uint64())
			}
		}
		if rng.Intn(33) == 0 {
			rec(ingest.SkipDuplicate, "shop.%s\tIN\tNS\tns1.provider%d.com.", owner, provider)
		}
		if i%4096 == 4095 {
			rec(ingest.SkipOutOfZone, "stray%d.example.com.\tIN\tNS\tns1.provider%d.com.", i, provider)
			rec(ingest.SkipUnregistrable, "co\tIN\tNS\tns1.provider%d.com.", provider)
			fmt.Fprintf(bw, "broken%d\tIN\tA\t300.1.2.%d\n", i, i&255)
			t.skipped[ingest.SkipBadRecord]++
		}
	}
	t.targetsHash = hex.EncodeToString(th.Sum(nil))
	return t, bw.Flush()
}

func addTarget(h hash.Hash, t *dumpTruth, name string) {
	io.WriteString(h, name+"\n")
	t.targets++
}

// writeDumpFile writes the seed's dump to path, gzipped or plain.
func writeDumpFile(path string, seed int64, gz bool) (dumpTruth, error) {
	f, err := os.Create(path)
	if err != nil {
		return dumpTruth{}, err
	}
	defer f.Close()
	var w io.Writer = f
	var zw *gzip.Writer
	if gz {
		zw = gzip.NewWriter(f) // no name or mtime in the header: same seed, same bytes
		w = zw
	}
	t, err := writeDump(w, seed)
	if err != nil {
		return t, err
	}
	if zw != nil {
		if err := zw.Close(); err != nil {
			return t, err
		}
	}
	return t, f.Close()
}

// ingestPass is one ingest.File call over the dump. It keeps a digest
// of the targets, not the targets, so a run's memory does not grow with
// its pass count.
type ingestPass struct {
	wall, cpu   time.Duration
	stats       ingest.Stats
	targets     int
	targetsHash string
}

// ingestOnce runs one ingest.File call from a collected heap, as a
// fresh zonestat process would.
func ingestOnce(ctx context.Context, path string, reg *obs.Registry) (ingestPass, error) {
	runtime.GC()
	cpu0 := processCPU()
	start := time.Now()
	res, err := ingest.File(ctx, path, ingest.Config{Registry: reg})
	if err != nil {
		return ingestPass{}, err
	}
	p := ingestPass{wall: time.Since(start), cpu: processCPU() - cpu0, stats: res.Stats, targets: len(res.Targets)}
	h := sha256.New()
	for _, name := range res.Targets {
		io.WriteString(h, name+"\n")
	}
	p.targetsHash = hex.EncodeToString(h.Sum(nil))
	return p, nil
}

// checkIngest counts the differences between an ingest result and the
// planted truth; every one is a failed operation.
func checkIngest(out *outcome, i int, p ingestPass, t dumpTruth) {
	out.attempted += t.records + t.skipped[ingest.SkipBadRecord]
	if p.stats.Records != t.records {
		out.fail(abs(p.stats.Records-t.records), "pass %d parsed %d records, planted %d", i, p.stats.Records, t.records)
	}
	if p.targetsHash != t.targetsHash || p.targets != t.targets {
		out.fail(max(1, abs(p.targets-t.targets)), "pass %d: %d targets (sha256 %s), planted %d (%s)",
			i, p.targets, p.targetsHash, t.targets, t.targetsHash)
	}
	for _, r := range skipReasons {
		if got, want := p.stats.Skipped[r], t.skipped[r]; got != want {
			out.fail(abs(got-want), "pass %d: %d %s skips, planted %d", i, got, r, want)
		}
	}
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

// runIngest measures ingest.File over the seed's gzipped dump.
func runIngest(ctx context.Context, cfg config) (*outcome, error) {
	out := newOutcome()
	gzPath := filepath.Join(cfg.workDir, "uk.zone.gz")
	var truth dumpTruth
	var setup []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		t, err := writeDumpFile(gzPath, cfg.seed, true)
		if err != nil {
			return nil, fmt.Errorf("writing dump: %w", err)
		}
		setup = append(setup, time.Since(start).Seconds())
		truth = t
	}
	fi, err := os.Stat(gzPath)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	fmt.Printf("setup: dump of %d records, %d targets, %d gzipped bytes written in %s\n",
		truth.records, truth.targets, fi.Size(), spreadOf(setup))

	untracedBudget := cfg.budget
	if cfg.trace {
		untracedBudget = cfg.budget / 2
	}
	var passes int
	pass := func(path string, reg *obs.Registry, keep *[]ingestPass) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			p, err := ingestOnce(ctx, path, reg)
			if err != nil {
				return 0, err
			}
			checkIngest(out, passes, p, truth)
			passes++
			*keep = append(*keep, p)
			return p.wall, nil
		}
	}
	var plain []ingestPass
	if err := repeatFor(untracedBudget, pass(gzPath, nil, &plain)); err != nil {
		return nil, err
	}
	recs := float64(truth.records)
	cpuPerRecord := func(p ingestPass) float64 { return float64(p.cpu.Nanoseconds()) / 1e3 / recs }
	rps := spreadBy(plain, func(p ingestPass) float64 { return recs / p.wall.Seconds() })
	cpu := spreadBy(plain, cpuPerRecord)
	wall := spreadBy(plain, func(p ingestPass) float64 { return float64(p.wall.Nanoseconds()) / 1e6 })
	fmt.Printf("records_per_s %s\ncpu_ns_per_record %.1f (us %s)\npass wall ms %s\n", rps, cpu.Median*1e3, cpu, wall)
	out.detail["passes"] = len(plain)
	out.detail["records_per_s"] = rps
	out.detail["cpu_us_per_record"] = cpu
	out.detail["setup_s"] = spreadOf(setup)
	out.detail["targets_sha256"] = truth.targetsHash

	if !cfg.trace {
		out.metrics["setup_s"] = median(setup)
		out.metrics["throughput_per_s"] = rps.Median
		out.metrics["cpu_us_per_op"] = cpu.Median
		out.metrics["peak_rss_mb"] = peakRSSMB()
		// ingest.File hands every target over at once when it returns, so
		// each record's time to result is the pass's wall time.
		out.metrics["p50_ms"] = wall.Median
		return out, nil
	}

	// The same dump uncompressed, ingested once untraced: the difference
	// from the gzipped passes is the inflate stage's share.
	plainPath := filepath.Join(cfg.workDir, "uk.zone")
	if _, err := writeDumpFile(plainPath, cfg.seed, false); err != nil {
		return nil, err
	}
	var unzipped []ingestPass
	if _, err := pass(plainPath, nil, &unzipped)(); err != nil {
		return nil, err
	}
	plainWall, gzWall := unzipped[0].wall.Seconds(), spreadBy(plain, func(p ingestPass) float64 { return p.wall.Seconds() }).Median

	reg := obs.NewRegistry()
	heap := startHeapSampler(20 * time.Millisecond)
	rt0 := readRuntime()
	var traced []ingestPass
	if err := repeatFor(cfg.budget-untracedBudget-unzipped[0].wall, pass(gzPath, reg, &traced)); err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	heapPeak := heap.Stop()
	tracedCPU := spreadBy(traced, cpuPerRecord)

	snap := reg.Snapshot()
	n := float64(len(traced))
	m := out.metrics
	m["ingest.records"] = float64(snap.Counters["ingest.records"]) / n
	m["ingest.targets"] = float64(snap.Counters["ingest.targets"]) / n
	for _, r := range skipReasons {
		m["ingest.skipped."+r] = float64(snap.Counters["ingest.skip."+r]) / n
	}
	m["ingest.inflate_share"] = (gzWall - plainWall) / gzWall
	m["runtime.gc_cpu_fraction"] = (rt1.gcCPU - rt0.gcCPU) / (rt1.totalCPU - rt0.totalCPU)
	m["runtime.allocs_per_record"] = float64(rt1.allocs-rt0.allocs) / (recs * n)
	m["runtime.heap_peak_mb"] = heapPeak
	m["trace.overhead_cpu_us_per_op"] = tracedCPU.Median - cpu.Median
	fmt.Printf("ingest.inflate_share: gzipped pass %.3f s (median) vs plain pass %.3f s of the same %d records\n",
		gzWall, plainWall, truth.records)
	fmt.Printf("runtime.gc_cpu_fraction %.3f of %.3f runtime CPU-s\n", rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU)
	fmt.Printf("trace overhead: cpu_us_per_record traced %s vs untraced %s\n", tracedCPU, cpu)
	return out, nil
}

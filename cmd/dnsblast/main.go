// Command dnsblast replays a zipfian query mix against a DNS server
// over real UDP and TCP sockets and reports qps, p50/p99 latency and
// error rate. It is the load half of the serving-path bench: names are
// drawn from a zone file with zipf-distributed popularity (the shape of
// a million-user resolver population hitting an authoritative server),
// query types follow a realistic weighted mix, and a configurable
// fraction of queries runs over persistent TCP connections and with the
// EDNS DO bit set.
//
// Usage:
//
//	dnsblast -server 127.0.0.1:5353 -zone example.com.db -duration 3s
//	dnsblast -server $ADDR -zone z.db -concurrency 16 -tcp-frac 0.1 \
//	         -min-qps 500 -max-error-rate 0 -json result.json
//	dnsblast -verify-metrics metrics.json   # assert a dnsd snapshot is well-formed
//
// With -min-qps / -max-error-rate the exit status becomes an
// assertion, which is how `make serve-smoke` gates CI.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/obs"
	"dnssecboot/internal/transport"
	"dnssecboot/internal/zone"
)

// typeMix is the weighted query-type distribution: mostly A, the rest
// spread over the types a busy authoritative actually sees.
var typeMix = []struct {
	typ    dnswire.Type
	weight int
}{
	{dnswire.TypeA, 60},
	{dnswire.TypeAAAA, 12},
	{dnswire.TypeMX, 8},
	{dnswire.TypeTXT, 8},
	{dnswire.TypeNS, 6},
	{dnswire.TypeSOA, 6},
}

type result struct {
	ok        bool
	latency   time.Duration
	tcp       bool
	errorKind string // "", "timeout", "protocol", "io"
}

type report struct {
	Queries   int     `json:"queries"`
	UDP       int     `json:"udp"`
	TCP       int     `json:"tcp"`
	Errors    int     `json:"errors"`
	Timeouts  int     `json:"timeouts"`
	Protocol  int     `json:"protocol_errors"`
	IO        int     `json:"io_errors"`
	Seconds   float64 `json:"seconds"`
	QPS       float64 `json:"qps"`
	P50ms     float64 `json:"p50_ms"`
	P99ms     float64 `json:"p99_ms"`
	ErrorRate float64 `json:"error_rate"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// validate refuses numeric flags outside their meaningful range; the
// error names the offending flag first.
func validate(concurrency int, zipfS, tcpFrac, doFrac, nxFrac float64, duration, timeout time.Duration) error {
	switch {
	case !(tcpFrac >= 0 && tcpFrac <= 1):
		return fmt.Errorf("-tcp-frac %v: must be a fraction in [0, 1]", tcpFrac)
	case !(doFrac >= 0 && doFrac <= 1):
		return fmt.Errorf("-do-frac %v: must be a fraction in [0, 1]", doFrac)
	case !(nxFrac >= 0 && nxFrac <= 1):
		return fmt.Errorf("-nx-frac %v: must be a fraction in [0, 1]", nxFrac)
	case concurrency < 1:
		return fmt.Errorf("-concurrency %d: must be at least 1", concurrency)
	case !(zipfS > 1):
		return fmt.Errorf("-zipf-s %v: must be > 1", zipfS)
	case duration <= 0:
		return fmt.Errorf("-duration %v: must be > 0", duration)
	case timeout <= 0:
		return fmt.Errorf("-timeout %v: must be > 0", timeout)
	}
	return nil
}

func run(args []string) int {
	fs := flag.NewFlagSet("dnsblast", flag.ExitOnError)
	var (
		server       = fs.String("server", "", "server address (host:port)")
		zoneFile     = fs.String("zone", "", "zone file supplying query names")
		duration     = fs.Duration("duration", 3*time.Second, "how long to blast")
		concurrency  = fs.Int("concurrency", 8, "closed-loop worker count")
		zipfS        = fs.Float64("zipf-s", 1.3, "zipf skew (>1; larger = hotter hot set)")
		tcpFrac      = fs.Float64("tcp-frac", 0.1, "fraction of queries over persistent TCP")
		doFrac       = fs.Float64("do-frac", 0.2, "fraction of queries with the EDNS DO bit")
		nxFrac       = fs.Float64("nx-frac", 0.05, "fraction of queries for nonexistent names")
		timeout      = fs.Duration("timeout", 2*time.Second, "per-query timeout")
		seed         = fs.Int64("seed", 1, "workload randomness seed")
		jsonOut      = fs.String("json", "", "write the report as JSON to this file")
		minQPS       = fs.Float64("min-qps", 0, "fail unless achieved qps is at least this")
		maxErrorRate = fs.Float64("max-error-rate", -1, "fail if error rate exceeds this (-1 disables)")
		verifyPath   = fs.String("verify-metrics", "", "verify a dnsd metrics snapshot and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *verifyPath != "" {
		if err := verifyMetrics(*verifyPath); err != nil {
			fmt.Fprintln(os.Stderr, "dnsblast:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "dnsblast: metrics snapshot %s is well-formed\n", *verifyPath)
		return 0
	}
	if *server == "" || *zoneFile == "" {
		fmt.Fprintln(os.Stderr, "dnsblast: -server and -zone are required")
		return 2
	}
	if err := validate(*concurrency, *zipfS, *tcpFrac, *doFrac, *nxFrac, *duration, *timeout); err != nil {
		fmt.Fprintln(os.Stderr, "dnsblast:", err)
		return 2
	}
	names, origin, err := namesFromZone(*zoneFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dnsblast:", err)
		return 1
	}
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "dnsblast: zone has no queryable names")
		return 1
	}

	deadline := time.Now().Add(*duration)
	results := make([][]result, *concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = blast(blastConfig{
				server:   *server,
				names:    names,
				origin:   origin,
				deadline: deadline,
				zipfS:    *zipfS,
				tcpFrac:  *tcpFrac,
				doFrac:   *doFrac,
				nxFrac:   *nxFrac,
				timeout:  *timeout,
				rng:      rand.New(rand.NewSource(*seed + int64(w)*7919)),
			})
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := summarize(results, elapsed)
	fmt.Printf("dnsblast: %d queries in %.2fs  qps=%.0f  p50=%.2fms p99=%.2fms  udp=%d tcp=%d  errors=%d (%.2f%%: %d timeout, %d protocol, %d io)\n",
		rep.Queries, rep.Seconds, rep.QPS, rep.P50ms, rep.P99ms,
		rep.UDP, rep.TCP, rep.Errors, 100*rep.ErrorRate, rep.Timeouts, rep.Protocol, rep.IO)
	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "dnsblast:", err)
			return 1
		}
	}
	if *minQPS > 0 && rep.QPS < *minQPS {
		fmt.Fprintf(os.Stderr, "dnsblast: FAIL qps %.0f < min %.0f\n", rep.QPS, *minQPS)
		return 1
	}
	if *maxErrorRate >= 0 && rep.ErrorRate > *maxErrorRate {
		fmt.Fprintf(os.Stderr, "dnsblast: FAIL error rate %.4f > max %.4f\n", rep.ErrorRate, *maxErrorRate)
		return 1
	}
	return 0
}

// namesFromZone collects the owner names worth querying (those carrying
// at least one non-DNSSEC record), sorted for deterministic zipf rank.
func namesFromZone(path string) ([]string, string, error) {
	origin, err := zone.OriginFromFilename(path)
	if err != nil {
		return nil, "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	z, err := zone.Parse(f, origin)
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	var names []string
	for _, name := range z.Names() {
		for _, typ := range z.TypesAt(name) {
			switch typ {
			case dnswire.TypeRRSIG, dnswire.TypeNSEC, dnswire.TypeNSEC3, dnswire.TypeDNSKEY, dnswire.TypeCDS, dnswire.TypeCDNSKEY:
				continue
			}
			names = append(names, name)
			break
		}
	}
	sort.Strings(names)
	return names, z.Origin, nil
}

type blastConfig struct {
	server   string
	names    []string
	origin   string
	deadline time.Time
	zipfS    float64
	tcpFrac  float64
	doFrac   float64
	nxFrac   float64
	timeout  time.Duration
	rng      *rand.Rand
}

// blast is one closed-loop worker: it keeps one persistent UDP socket
// and one persistent TCP connection, fires queries until the deadline,
// and records one result per query.
func blast(cfg blastConfig) []result {
	zipf := rand.NewZipf(cfg.rng, cfg.zipfS, 1, uint64(len(cfg.names)-1))
	udp, err := net.Dial("udp", cfg.server)
	if err != nil {
		return []result{{errorKind: "io"}}
	}
	defer udp.Close()
	var tcp net.Conn
	defer func() {
		if tcp != nil {
			tcp.Close()
		}
	}()

	var out []result
	buf := make([]byte, 65535)
	for time.Now().Before(cfg.deadline) {
		name := cfg.names[zipf.Uint64()]
		wantRcode := dnswire.RcodeNoError
		if cfg.rng.Float64() < cfg.nxFrac {
			name = fmt.Sprintf("nx%d.%s", cfg.rng.Intn(1<<20), cfg.origin)
			wantRcode = dnswire.RcodeNXDomain
		}
		typ := pickType(cfg.rng)
		q := dnswire.NewQuery(uint16(cfg.rng.Intn(0xFFFF)+1), name, typ)
		if cfg.rng.Float64() < cfg.doFrac {
			q.SetEDNS(dnswire.EDNS{UDPSize: dnswire.MaxUDPPayload, DO: true})
		}
		useTCP := cfg.rng.Float64() < cfg.tcpFrac

		var r result
		if useTCP {
			if tcp == nil {
				tcp, err = net.Dial("tcp", cfg.server)
				if err != nil {
					out = append(out, result{tcp: true, errorKind: "io"})
					tcp = nil
					continue
				}
			}
			r = exchangeTCP(tcp, q, cfg.timeout, buf, wantRcode)
			if r.errorKind != "" {
				tcp.Close()
				tcp = nil
			}
		} else {
			r = exchangeUDP(udp, q, cfg.timeout, buf, wantRcode)
		}
		out = append(out, r)
	}
	return out
}

func pickType(rng *rand.Rand) dnswire.Type {
	total := 0
	for _, tm := range typeMix {
		total += tm.weight
	}
	n := rng.Intn(total)
	for _, tm := range typeMix {
		if n < tm.weight {
			return tm.typ
		}
		n -= tm.weight
	}
	return dnswire.TypeA
}

func exchangeUDP(conn net.Conn, q *dnswire.Message, timeout time.Duration, buf []byte, wantRcode dnswire.Rcode) result {
	wire, err := q.Pack()
	if err != nil {
		return result{errorKind: "io"}
	}
	start := time.Now()
	_ = conn.SetDeadline(start.Add(timeout))
	if _, err := conn.Write(wire); err != nil {
		return result{errorKind: "io"}
	}
	for {
		n, err := conn.Read(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return result{errorKind: "timeout"}
			}
			return result{errorKind: "io"}
		}
		resp, err := dnswire.Unpack(buf[:n])
		if err != nil || resp.ID != q.ID {
			continue // garbage or stray datagram; keep reading until deadline
		}
		return check(resp, q, time.Since(start), false, wantRcode)
	}
}

func exchangeTCP(conn net.Conn, q *dnswire.Message, timeout time.Duration, buf []byte, wantRcode dnswire.Rcode) result {
	wire, err := q.Pack()
	if err != nil {
		return result{tcp: true, errorKind: "io"}
	}
	start := time.Now()
	_ = conn.SetDeadline(start.Add(timeout))
	if err := transport.WriteTCPMessage(conn, wire); err != nil {
		return result{tcp: true, errorKind: "io"}
	}
	respWire, err := transport.ReadTCPMessageInto(conn, buf)
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return result{tcp: true, errorKind: "timeout"}
		}
		return result{tcp: true, errorKind: "io"}
	}
	resp, err := dnswire.Unpack(respWire)
	if err != nil {
		return result{tcp: true, errorKind: "protocol"}
	}
	return check(resp, q, time.Since(start), true, wantRcode)
}

// check classifies a response: anything other than a well-formed answer
// to our question with the expected rcode is a protocol error.
func check(resp, q *dnswire.Message, latency time.Duration, tcp bool, wantRcode dnswire.Rcode) result {
	r := result{latency: latency, tcp: tcp}
	switch {
	case resp.ID != q.ID:
		r.errorKind = "protocol"
	case !resp.Response:
		r.errorKind = "protocol"
	case resp.Rcode != wantRcode:
		r.errorKind = "protocol"
	case resp.Truncated && tcp:
		r.errorKind = "protocol" // TCP responses must never truncate here
	default:
		r.ok = true
	}
	return r
}

func summarize(perWorker [][]result, elapsed time.Duration) report {
	rep := report{Seconds: elapsed.Seconds()}
	var lat []float64
	for _, rs := range perWorker {
		for _, r := range rs {
			rep.Queries++
			if r.tcp {
				rep.TCP++
			} else {
				rep.UDP++
			}
			switch r.errorKind {
			case "":
				lat = append(lat, r.latency.Seconds())
			case "timeout":
				rep.Errors++
				rep.Timeouts++
			case "protocol":
				rep.Errors++
				rep.Protocol++
			default:
				rep.Errors++
				rep.IO++
			}
		}
	}
	if rep.Seconds > 0 {
		rep.QPS = float64(rep.Queries) / rep.Seconds
	}
	if rep.Queries > 0 {
		rep.ErrorRate = float64(rep.Errors) / float64(rep.Queries)
	}
	sort.Float64s(lat)
	rep.P50ms = 1000 * percentile(lat, 0.50)
	rep.P99ms = 1000 * percentile(lat, 0.99)
	return rep
}

// percentile returns the exact q-quantile of sorted samples
// (nearest-rank), 0 with no samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// verifyMetrics asserts a dnsd -metrics-out snapshot is well-formed:
// valid JSON in the obs.Snapshot shape, with nonzero served-query
// counters and a populated handle-latency histogram. It is the load
// generator's cross-check that the server actually saw its traffic.
func verifyMetrics(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("%s: not a valid metrics snapshot: %w", path, err)
	}
	served := snap.Counters["server.udp.queries"] + snap.Counters["server.tcp.queries"]
	if served == 0 {
		return fmt.Errorf("%s: snapshot records zero served queries", path)
	}
	h, ok := snap.Histograms["server.handle.seconds"]
	if !ok || h.Count == 0 {
		return fmt.Errorf("%s: snapshot lacks a populated server.handle.seconds histogram", path)
	}
	if len(h.Buckets) == 0 {
		return fmt.Errorf("%s: server.handle.seconds has no buckets", path)
	}
	return nil
}

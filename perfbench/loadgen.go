package main

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/netip"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dnssecboot/internal/dnswire"
)

// clock is the open-loop pacer's view of time; tests substitute one
// that stalls on demand.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

// threadClock sleeps with nanosleep on the calling OS thread. The Go
// timer behind time.Sleep oversleeps sub-millisecond waits by up to a
// millisecond on Linux, which at these rates would be most of every
// measured latency; the caller locks the pacing goroutine to its thread
// and sets the thread's timer slack to 1 ns.
type threadClock struct{}

func (threadClock) Now() time.Time { return time.Now() }
func (threadClock) Sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// pace calls send(i) for i in [0, n), never before query i is due at
// start + i·interval. A send that runs late (the pacer overslept or send
// stalled) does not shift the schedule: later queries stay due at their
// own times and go out back to back until the pacer has caught up. It
// returns each query's lateness, the generator's own contribution to the
// latencies measured from the due times.
func pace(clk clock, start time.Time, interval time.Duration, n int, send func(i int)) []time.Duration {
	late := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := due.Sub(clk.Now()); d > 0 {
			clk.Sleep(d)
		}
		late[i] = clk.Now().Sub(due)
		send(i)
	}
	return late
}

// query is one generated question and the answer it must get.
type query struct {
	name  string
	qtype dnswire.Type
	do    bool
	nx    bool // the name does not exist: NXDOMAIN expected
	// nodata: the name exists without the asked type, so NOERROR with
	// an empty answer and the zone's SOA is expected.
	nodata bool
}

// rung is one step's queries: a fixed offered rate of the ladder, or a
// closed-loop saturation window (rate 0).
type rung struct {
	rate      int
	sent      int
	answered  int
	wrong     int
	latencyMS []float64 // per answered query, from its due time
	lateMS    []float64 // per query, how late the pacer sent it
	wall      time.Duration
	backlog   bool // latency grew over the rung: the server fell behind
}

// timeouts is the number of queries never answered.
func (r *rung) timeouts() int { return r.sent - r.answered }

// summary is the rung's latency distribution with every unanswered
// query counted as missing any limit.
func (r *rung) summary() (latency, error) {
	s := append([]float64(nil), r.latencyMS...)
	for i := 0; i < r.timeouts(); i++ {
		s = append(s, math.Inf(1))
	}
	return summarize(s)
}

// genReadBuffer is the generator sockets' receive buffer size (Linux
// caps it at net.core.rmem_max).
const genReadBuffer = 4 << 20

// answerTimeout is how long after its due time a query may still be
// answered; later, it counts as a timeout.
const answerTimeout = time.Second

// dialAndPack opens sockets UDP sockets to server and packs every query,
// query i for socket i mod sockets under ID i / sockets. Every query is
// packed before a rung starts and every response is checked after it
// ends, so the generator neither packs nor parses while it measures.
func dialAndPack(server netip.AddrPort, sockets int, queries []query) ([]*net.UDPConn, [][]byte, error) {
	n := len(queries)
	if n/sockets >= 1<<16 {
		return nil, nil, fmt.Errorf("rung of %d queries overflows the 16-bit ID space of %d sockets", n, sockets)
	}
	wires := make([][]byte, n)
	var arena []byte
	for i, q := range queries {
		msg := dnswire.Message{ID: uint16(i / sockets), Question: []dnswire.Question{{Name: q.name, Type: q.qtype, Class: dnswire.ClassIN}}}
		msg.SetEDNS(dnswire.EDNS{UDPSize: 1232, DO: q.do})
		off := len(arena)
		var err error
		if arena, err = msg.AppendPack(arena); err != nil {
			return nil, nil, err
		}
		wires[i] = arena[off:len(arena):len(arena)]
	}
	conns := make([]*net.UDPConn, sockets)
	for s := range conns {
		c, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(server))
		if err != nil {
			closeAll(conns[:s])
			return nil, nil, err
		}
		// A default-sized receive buffer holds a few milliseconds of
		// answers; a scheduling stall of the receiver would drop the rest
		// and charge the server with timeouts.
		_ = c.SetReadBuffer(genReadBuffer)
		conns[s] = c
	}
	return conns, wires, nil
}

// runRung offers queries[i] to server at rate per second from sockets
// UDP sockets (query i on socket i mod sockets) and checks every answer.
func runRung(server netip.AddrPort, rate, sockets int, queries []query) (*rung, error) {
	n := len(queries)
	conns, wires, err := dialAndPack(server, sockets, queries)
	if err != nil {
		return nil, err
	}
	r := &rung{rate: rate, sent: n}
	recvAt := make([]time.Time, n)
	resp := make([][]byte, n)
	var answered atomic.Int64
	var wg sync.WaitGroup
	for s, c := range conns {
		wg.Add(1)
		go func(s int, c *net.UDPConn) {
			defer wg.Done()
			buf := make([]byte, 65535)
			arena := make([]byte, 0, (n/sockets+1)*512)
			for {
				k, err := c.Read(buf)
				if err != nil {
					return // closed after the rung
				}
				now := time.Now()
				if k < 2 {
					continue
				}
				i := int(uint16(buf[0])<<8|uint16(buf[1]))*sockets + s
				if i >= n || !recvAt[i].IsZero() {
					continue // not a query of this rung, or a duplicate
				}
				recvAt[i] = now
				arena = append(arena, buf[:k]...)
				resp[i] = arena[len(arena)-k : len(arena) : len(arena)]
				answered.Add(1)
			}
		}(s, c)
	}

	interval := time.Second / time.Duration(rate)
	start := time.Now().Add(2 * time.Millisecond)
	var sendErr error
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	late := pace(threadClock{}, start, interval, n, func(i int) {
		if _, err := conns[i%sockets].Write(wires[i]); err != nil && sendErr == nil {
			sendErr = err
		}
	})
	deadline := start.Add(time.Duration(n-1)*interval + answerTimeout)
	for int(answered.Load()) < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	closeAll(conns)
	wg.Wait()
	if sendErr != nil {
		return nil, fmt.Errorf("sending at %d/s: %w", rate, sendErr)
	}

	r.lateMS = make([]float64, n)
	for i, l := range late {
		r.lateMS[i] = float64(l.Nanoseconds()) / 1e6
	}
	r.check(resp, sockets, queries)
	var last time.Time
	for i, t := range recvAt {
		if t.IsZero() {
			continue
		}
		if t.After(last) {
			last = t
		}
		r.latencyMS = append(r.latencyMS, sinceDueMS(start, interval, i, t))
	}
	r.wall = last.Sub(start)
	r.backlog = growing(r.latencyMS)
	return r, nil
}

// check counts the answered queries and the wrong answers among them;
// resp[i] is query i's response, nil if none came.
func (r *rung) check(resp [][]byte, sockets int, queries []query) {
	for i, b := range resp {
		if b == nil {
			continue
		}
		r.answered++
		if !answerOK(b, uint16(i/sockets), queries[i]) {
			r.wrong++
		}
	}
}

// runClosed keeps window queries outstanding on each of sockets UDP
// sockets for d: each answer releases the socket's next query. The
// answered count over the wall time is the server's saturated
// throughput. An open-loop rate above capacity would have the server's
// queue drop queries; here no more than window·sockets are ever queued,
// so none is dropped.
func runClosed(server netip.AddrPort, sockets, window int, queries []query, d time.Duration) (*rung, error) {
	n := len(queries)
	conns, wires, err := dialAndPack(server, sockets, queries)
	if err != nil {
		return nil, err
	}
	defer closeAll(conns)
	resp := make([][]byte, n)
	sent := make([]int, sockets)
	exhausted := make([]bool, sockets)
	sendErr := make([]error, sockets)
	start := time.Now()
	stop := start.Add(d)
	var wg sync.WaitGroup
	for s, c := range conns {
		wg.Add(1)
		go func(s int, c *net.UDPConn) {
			defer wg.Done()
			_ = c.SetReadDeadline(stop.Add(answerTimeout))
			buf := make([]byte, 65535)
			var arena []byte
			next := s
			send := func() {
				if next >= n {
					exhausted[s] = true
					return
				}
				if _, err := c.Write(wires[next]); err != nil {
					sendErr[s] = err
					return
				}
				next += sockets
				sent[s]++
			}
			for i := 0; i < window; i++ {
				send()
			}
			for outstanding := sent[s]; outstanding > 0; {
				k, err := c.Read(buf)
				if err != nil {
					return // the deadline passed: the rest are timeouts
				}
				if k < 2 {
					continue
				}
				i := int(uint16(buf[0])<<8|uint16(buf[1]))*sockets + s
				if i >= n || resp[i] != nil {
					continue // not a query of this run, or a duplicate
				}
				arena = append(arena, buf[:k]...)
				resp[i] = arena[len(arena)-k : len(arena) : len(arena)]
				outstanding--
				if time.Now().Before(stop) {
					before := sent[s]
					send()
					outstanding += sent[s] - before
				}
			}
		}(s, c)
	}
	wg.Wait()
	r := &rung{wall: time.Since(start)}
	for s := range conns {
		if sendErr[s] != nil {
			return nil, fmt.Errorf("closed loop: %w", sendErr[s])
		}
		if exhausted[s] {
			return nil, fmt.Errorf("closed loop ran out of its %d queries within %v", n, d)
		}
		r.sent += sent[s]
	}
	r.check(resp, sockets, queries)
	return r, nil
}

// sinceDueMS is query i's latency in milliseconds from when it was due,
// not from when the pacer got it out: a stall of the generator or of the
// server it waited on counts against every query it delayed.
func sinceDueMS(start time.Time, interval time.Duration, i int, answered time.Time) float64 {
	return float64(answered.Sub(start.Add(time.Duration(i)*interval)).Nanoseconds()) / 1e6
}

func closeAll(conns []*net.UDPConn) {
	for _, c := range conns {
		c.Close()
	}
}

// growing reports a backlog that built up over a rung: the median
// latency of its last fifth is more than twice that of its first fifth
// and over a millisecond higher.
func growing(latMS []float64) bool {
	n := len(latMS) / 5
	if n == 0 {
		return false
	}
	first, last := median(latMS[:n]), median(latMS[len(latMS)-n:])
	return last > 2*first && last-first > 1
}

// answerOK checks one response against the query it answers: a
// response to the same ID and question, with the expected rcode, an
// answer of the asked type when the name holds it (else an empty answer
// and the SOA), and RRSIGs when DO was set.
func answerOK(wire []byte, id uint16, q query) bool {
	m, err := dnswire.Unpack(wire)
	if err != nil || !m.Response || m.ID != id || m.Truncated || len(m.Question) != 1 {
		return false
	}
	got := m.Question[0]
	if !strings.EqualFold(got.Name, q.name) || got.Type != q.qtype || got.Class != dnswire.ClassIN {
		return false
	}
	proof := m.Answer
	switch {
	case q.nx:
		if m.Rcode != dnswire.RcodeNXDomain {
			return false
		}
		proof = m.Authority
	case q.nodata:
		if m.Rcode != dnswire.RcodeNoError || len(m.Answer) != 0 || !hasType(m.Authority, dnswire.TypeSOA) {
			return false
		}
		proof = m.Authority
	default:
		if m.Rcode != dnswire.RcodeNoError || !hasType(m.Answer, q.qtype) {
			return false
		}
	}
	return !q.do || hasType(proof, dnswire.TypeRRSIG)
}

func hasType(rrs []dnswire.RR, t dnswire.Type) bool {
	for _, rr := range rrs {
		if rr.Type() == t {
			return true
		}
	}
	return false
}

// serveZone is the served zone and the query mix drawn from it.
type serveZone struct {
	origin string
	text   []byte
	// names in popularity order, each with the types it holds.
	names []string
	types [][]dnswire.Type
}

// serveNames is the zone's name count. With its types and both DO
// settings the (name, type, DO) working set is several times the
// daemon's 4096-entry response cache, so the mix reaches the cache's
// miss path as well as its hit path.
const serveNames = 3000

// The query mix is cmd/dnsblast's, the repository's documented serving
// load: zipf name popularity with its default skew, its DO and NXDOMAIN
// shares, and its query-type weights.
const (
	zipfS  = 1.3  // name popularity: P(rank k) ∝ (1 + k)^-zipfS
	doFrac = 0.2  // share of queries with the DO bit
	nxFrac = 0.05 // share of queries for names that do not exist
)

// typeMix is cmd/dnsblast's weighted query-type distribution (a copy:
// dnsblast is a main package).
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

// buildServeZone generates the seed's zone: every name has an A record,
// some also TXT, AAAA and MX; popularity order is a seeded shuffle.
func buildServeZone(seed int64) serveZone {
	rng := rand.New(rand.NewSource(seed))
	z := serveZone{origin: "perf.example."}
	var b strings.Builder
	fmt.Fprintf(&b, "$ORIGIN %s\n$TTL 3600\n", z.origin)
	fmt.Fprintf(&b, "@\tIN\tSOA\tns1 hostmaster 1 7200 3600 1209600 300\n@\tIN\tNS\tns1\n@\tIN\tNS\tns2\n")
	fmt.Fprintf(&b, "ns1\tIN\tA\t192.0.2.53\nns2\tIN\tA\t192.0.2.54\nmail\tIN\tA\t192.0.2.25\n")
	names := make([]string, serveNames)
	types := make([][]dnswire.Type, serveNames)
	for i := range names {
		label := fmt.Sprintf("%s%d", syllables[rng.Intn(len(syllables))], i)
		names[i] = label + "." + z.origin
		fmt.Fprintf(&b, "%s\tIN\tA\t10.%d.%d.%d\n", label, i>>16&255, i>>8&255, i&255)
		types[i] = []dnswire.Type{dnswire.TypeA}
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&b, "%s\tIN\tTXT\t\"v=%d seed=%d\"\n", label, rng.Intn(1000), seed)
			types[i] = append(types[i], dnswire.TypeTXT)
		}
		if rng.Intn(5) < 2 {
			fmt.Fprintf(&b, "%s\tIN\tAAAA\t2001:db8::%x\n", label, i)
			types[i] = append(types[i], dnswire.TypeAAAA)
		}
		if rng.Intn(10) == 0 {
			fmt.Fprintf(&b, "%s\tIN\tMX\t10 mail\n", label)
			types[i] = append(types[i], dnswire.TypeMX)
		}
	}
	for _, i := range rng.Perm(serveNames) {
		z.names = append(z.names, names[i])
		z.types = append(z.types, types[i])
	}
	z.text = []byte(b.String())
	return z
}

// queries draws n queries for one rung; stream separates the rungs'
// draws so each rung's mix is fixed by (seed, stream). As in dnsblast,
// a query's type is drawn independently of its name, so a name without
// the type gets NODATA. NS and SOA are asked of the apex, the one name
// that holds them.
func (z *serveZone) queries(seed int64, stream, n int) []query {
	rng := rand.New(rand.NewSource(seed*1000 + int64(stream)))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(z.names)-1))
	out := make([]query, n)
	for i := range out {
		q := query{qtype: pickType(rng), do: rng.Float64() < doFrac}
		switch {
		case rng.Float64() < nxFrac:
			q.name = fmt.Sprintf("nx%d.%s", rng.Int63n(1e9), z.origin)
			q.nx = true
		case q.qtype == dnswire.TypeNS || q.qtype == dnswire.TypeSOA:
			q.name = z.origin
		default:
			k := zipf.Uint64()
			q.name = z.names[k]
			q.nodata = !slices.Contains(z.types[k], q.qtype)
		}
		out[i] = q
	}
	return out
}

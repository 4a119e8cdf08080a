package main

import (
	"bytes"
	"math"
	"testing"
	"time"

	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/server"
	"dnssecboot/internal/zone"
)

// fakeClock advances only when slept on or told to.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestPaceSendsOnScheduleAndAccountsForItsStalls(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start.Add(-time.Millisecond)}
	const interval = time.Millisecond
	var sentAt []time.Time
	late := pace(clk, start, interval, 20, func(i int) {
		sentAt = append(sentAt, clk.Now())
		if i == 3 {
			clk.Sleep(10 * time.Millisecond) // the generator stalls while sending query 3
		}
	})
	for i, at := range sentAt {
		due := start.Add(time.Duration(i) * interval)
		if at.Before(due) {
			t.Errorf("query %d sent %v before it was due", i, due.Sub(at))
		}
		if got := at.Sub(due); got != late[i] {
			t.Errorf("query %d: lateness %v, sent %v after due", i, late[i], got)
		}
		// An instant answer to a query held up by the stall still counts
		// the wait from its due time.
		if lat := sinceDueMS(start, interval, i, at); lat != float64(late[i].Nanoseconds())/1e6 {
			t.Errorf("query %d: latency %v ms from due, lateness %v", i, lat, late[i])
		}
	}
	// The stall ends at 13 ms: queries 4..12 go out back to back at
	// 13 ms, 9 ms down to 1 ms late, and the schedule does not shift.
	for i := 4; i <= 12; i++ {
		if want := time.Duration(13-i) * time.Millisecond; late[i] != want {
			t.Errorf("query %d: late %v, want %v", i, late[i], want)
		}
	}
	for _, i := range []int{0, 1, 2, 3, 13, 19} {
		if late[i] != 0 {
			t.Errorf("query %d: late %v, want on time", i, late[i])
		}
	}
}

func TestGrowingDetectsABacklog(t *testing.T) {
	flat := make([]float64, 100)
	rising := make([]float64, 100)
	for i := range flat {
		flat[i] = 0.1
		rising[i] = 0.1 + float64(i)*0.05
	}
	if growing(flat) {
		t.Error("flat latencies reported as a backlog")
	}
	if !growing(rising) {
		t.Error("latency rising by 5 ms over the rung not reported as a backlog")
	}
}

// TestRungChecksRealAnswers drives the open-loop and the closed-loop
// generator against the serving stack over loopback UDP and checks that
// every answer passes the correctness gate, and that a wrong expectation
// fails it.
func TestRungChecksRealAnswers(t *testing.T) {
	z := buildServeZone(1)
	zn, err := zone.Parse(bytes.NewReader(z.text), z.origin)
	if err != nil {
		t.Fatal(err)
	}
	if err := zn.GenerateKeys(zone.SignConfig{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := zn.Sign(zone.SignConfig{}); err != nil {
		t.Fatal(err)
	}
	srv := server.New(1)
	srv.AddZone(zn)
	l, err := server.Listen("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	qs := z.queries(1, 0, 600)
	var nx, nodata, do int
	for _, q := range qs {
		if q.nx {
			nx++
		}
		if q.nodata {
			nodata++
		}
		if q.do {
			do++
		}
	}
	if nx == 0 || nodata == 0 || do == 0 {
		t.Fatalf("query mix has %d NXDOMAIN, %d NODATA and %d DO queries", nx, nodata, do)
	}
	r, err := runRung(l.Addr(), 2000, 2, qs)
	if err != nil {
		t.Fatal(err)
	}
	if r.answered != len(qs) || r.wrong != 0 || len(r.latencyMS) != len(qs) {
		t.Fatalf("%d queries: %d answered, %d wrong", len(qs), r.answered, r.wrong)
	}
	// Far more queries than 20 ms can answer, so the loop cannot run out.
	many := z.queries(1, 1, 100000)
	r, err = runClosed(l.Addr(), 2, 8, many, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if r.answered == 0 || r.answered != r.sent || r.wrong != 0 {
		t.Fatalf("closed loop: %d sent, %d answered, %d wrong", r.sent, r.answered, r.wrong)
	}

	// Flipping a query's expected outcome must fail its answer: NXDOMAIN
	// expected of an existing name, an answer or NODATA of a missing one,
	// NODATA of a name holding the type and an answer of one that does not.
	bad := append([]query(nil), qs[:100]...)
	for i := range bad {
		if bad[i].nx || i%2 == 0 {
			bad[i].nx = !bad[i].nx
		} else {
			bad[i].nodata = !bad[i].nodata
		}
	}
	r, err = runRung(l.Addr(), 2000, 2, bad)
	if err != nil {
		t.Fatal(err)
	}
	if r.wrong != len(bad) {
		t.Errorf("%d of %d answers with the wrong outcome passed the gate", len(bad)-r.wrong, len(bad))
	}
	if _, err := runClosed(l.Addr(), 2, 8, qs[:20], time.Second); err == nil {
		t.Error("a closed loop that ran out of queries reported a throughput")
	}
}

// TestQueryMixIsDnsblasts checks the drawn mix against cmd/dnsblast's
// weights and shares, and that NS and SOA are asked of the apex.
func TestQueryMixIsDnsblasts(t *testing.T) {
	z := buildServeZone(1)
	const n = 200000
	qs := z.queries(1, 0, n)
	byType := map[dnswire.Type]int{}
	var nx, do, drawn, top int
	for _, q := range qs {
		byType[q.qtype]++
		if q.nx {
			nx++
		}
		if q.do {
			do++
		}
		if (q.qtype == dnswire.TypeNS || q.qtype == dnswire.TypeSOA) && !q.nx && q.name != z.origin {
			t.Fatalf("%v asked of %s, not the apex", q.qtype, q.name)
		}
		if !q.nx && q.name != z.origin {
			drawn++
			if q.name == z.names[0] {
				top++
			}
		}
	}
	near := func(what string, got int, want float64) {
		if share := float64(got) / n; math.Abs(share-want) > 0.01 {
			t.Errorf("%s share %.3f, want %.3f", what, share, want)
		}
	}
	for _, tm := range typeMix {
		near(tm.typ.String(), byType[tm.typ], float64(tm.weight)/100)
	}
	near("NXDOMAIN", nx, nxFrac)
	near("DO", do, doFrac)
	// Zipf s=1.3 over 3000 names puts 27.5% of name draws on the most
	// popular name.
	if share := float64(top) / float64(drawn); math.Abs(share-0.275) > 0.01 {
		t.Errorf("most popular name drew %.3f of %d name draws", share, drawn)
	}
}

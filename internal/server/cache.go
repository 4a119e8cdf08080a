package server

import (
	"container/list"
	"context"
	"net/netip"
	"sync"
	"time"

	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/obs"
	"dnssecboot/internal/transport"
)

// cacheKey identifies a query shape. The DO bit is part of the key
// because it changes the response body (RRSIGs, NSEC proofs); EDNS
// presence is not, because the OPT record is stripped from cached
// templates and re-synthesised per query.
type cacheKey struct {
	name  string
	qtype dnswire.Type
	class dnswire.Class
	do    bool
}

type cacheEntry struct {
	key     cacheKey
	resp    *dnswire.Message // OPT-free response template
	stored  time.Time
	expires time.Time
}

// Cache is a TTL-honouring response cache for repeated query shapes
// with size-capped LRU eviction. Entries expire when the smallest TTL
// in the cached response has elapsed; hits serve a copy with every TTL
// decremented by the entry's age, so downstream caches never see a TTL
// restart (RFC 1035 §3.2.1 semantics, the behaviour a busy
// authoritative front-end needs for its hot query set).
type Cache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used
	entries map[cacheKey]*list.Element
	now     func() time.Time

	hits      *obs.Counter
	misses    *obs.Counter
	expired   *obs.Counter
	evictions *obs.Counter
	size      *obs.Gauge
}

// NewCache returns a cache holding at most max responses (max <= 0
// selects 4096). reg may be nil; with a registry the cache exports
// server.cache.{hits,misses,expired,evictions,size}.
func NewCache(max int, reg *obs.Registry) *Cache {
	if max <= 0 {
		max = 4096
	}
	return &Cache{
		max:       max,
		ll:        list.New(),
		entries:   make(map[cacheKey]*list.Element),
		now:       time.Now,
		hits:      reg.Counter("server.cache.hits"),
		misses:    reg.Counter("server.cache.misses"),
		expired:   reg.Counter("server.cache.expired"),
		evictions: reg.Counter("server.cache.evictions"),
		size:      reg.Gauge("server.cache.size"),
	}
}

// Len reports the number of live entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

func keyFor(q *dnswire.Message) (cacheKey, bool) {
	if q == nil || len(q.Question) != 1 || q.Opcode != dnswire.OpcodeQuery || q.Response {
		return cacheKey{}, false
	}
	que := q.Question[0]
	return cacheKey{
		name:  que.Name,
		qtype: que.Type,
		class: que.Class,
		do:    q.DNSSECOK(),
	}, true
}

// Get returns a response for q served from cache, or nil on a miss.
// The returned message is a fresh copy carrying q's ID, question
// casing, RD bit and EDNS state, with TTLs aged by the entry's time in
// cache.
func (c *Cache) Get(q *dnswire.Message) *dnswire.Message {
	key, ok := keyFor(q)
	if !ok {
		return nil
	}
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Inc()
		return nil
	}
	e := el.Value.(*cacheEntry)
	now := c.now()
	if !now.Before(e.expires) {
		c.removeLocked(el)
		c.mu.Unlock()
		c.expired.Inc()
		c.misses.Inc()
		return nil
	}
	c.ll.MoveToFront(el)
	tmpl := e.resp
	elapsed := uint32(now.Sub(e.stored) / time.Second)
	c.mu.Unlock()
	c.hits.Inc()

	out := &dnswire.Message{
		ID:               q.ID,
		Response:         true,
		Opcode:           q.Opcode,
		Authoritative:    tmpl.Authoritative,
		Rcode:            tmpl.Rcode,
		RecursionDesired: q.RecursionDesired,
		Question:         q.Question,
		Answer:           ageRRs(tmpl.Answer, elapsed),
		Authority:        ageRRs(tmpl.Authority, elapsed),
		Additional:       ageRRs(tmpl.Additional, elapsed),
	}
	if e, ok := q.GetEDNS(); ok {
		out.SetEDNS(dnswire.EDNS{UDPSize: dnswire.MaxUDPPayload, DO: e.DO})
	}
	return out
}

// Put stores resp as the answer for q's query shape. Responses that are
// not plain cacheable answers (multi-question, truncated, rcodes other
// than NoError/NXDomain, or without a single record to derive a TTL
// from) are ignored.
func (c *Cache) Put(q, resp *dnswire.Message) {
	key, ok := keyFor(q)
	if !ok || resp == nil || resp.Truncated {
		return
	}
	if resp.Rcode != dnswire.RcodeNoError && resp.Rcode != dnswire.RcodeNXDomain {
		return
	}
	tmpl := &dnswire.Message{
		Response:      true,
		Authoritative: resp.Authoritative,
		Rcode:         resp.Rcode,
		Answer:        copyNonOPT(resp.Answer),
		Authority:     copyNonOPT(resp.Authority),
		Additional:    copyNonOPT(resp.Additional),
	}
	ttl, ok := minTTL(tmpl)
	if !ok || ttl == 0 {
		return
	}
	now := c.now()
	e := &cacheEntry{key: key, resp: tmpl, stored: now, expires: now.Add(time.Duration(ttl) * time.Second)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
		return
	}
	for c.ll.Len() >= c.max {
		c.removeLocked(c.ll.Back())
		c.evictions.Inc()
	}
	c.entries[key] = c.ll.PushFront(e)
	c.size.Set(int64(c.ll.Len()))
}

func (c *Cache) removeLocked(el *list.Element) {
	if el == nil {
		return
	}
	e := el.Value.(*cacheEntry)
	delete(c.entries, e.key)
	c.ll.Remove(el)
	c.size.Set(int64(c.ll.Len()))
}

// minTTL returns the smallest TTL across the template's sections.
func minTTL(m *dnswire.Message) (uint32, bool) {
	min, found := uint32(0), false
	for _, sec := range [][]dnswire.RR{m.Answer, m.Authority, m.Additional} {
		for _, rr := range sec {
			if !found || rr.TTL < min {
				min, found = rr.TTL, true
			}
		}
	}
	return min, found
}

// copyNonOPT copies a section, dropping EDNS OPT pseudo-records (their
// TTL field encodes flags, not a lifetime, and EDNS state is
// per-query).
func copyNonOPT(sec []dnswire.RR) []dnswire.RR {
	if len(sec) == 0 {
		return nil
	}
	out := make([]dnswire.RR, 0, len(sec))
	for _, rr := range sec {
		if rr.Type() == dnswire.TypeOPT {
			continue
		}
		out = append(out, rr)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// ageRRs copies a section with TTLs decremented by elapsed seconds
// (never below 1, so a response served moments before expiry is still
// well-formed).
func ageRRs(sec []dnswire.RR, elapsed uint32) []dnswire.RR {
	if len(sec) == 0 {
		return nil
	}
	out := make([]dnswire.RR, len(sec))
	for i, rr := range sec {
		if rr.TTL > elapsed {
			rr.TTL -= elapsed
		} else {
			rr.TTL = 1
		}
		out[i] = rr
	}
	return out
}

// CachedHandler wraps a transport.Handler with a response Cache. It is
// the composition cmd/dnsd serves: Server answers from zone data, the
// cache absorbs the zipfian hot set.
type CachedHandler struct {
	Inner transport.Handler
	Cache *Cache
}

// HandleDNS implements transport.Handler.
func (h *CachedHandler) HandleDNS(ctx context.Context, local netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
	if resp := h.Cache.Get(q); resp != nil {
		return resp, nil
	}
	resp, err := h.Inner.HandleDNS(ctx, local, q)
	if err == nil && resp != nil {
		h.Cache.Put(q, resp)
	}
	return resp, err
}

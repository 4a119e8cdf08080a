package dnswire

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

// Property-based tests (testing/quick) over the wire codec: random
// structured messages must survive a pack/unpack round trip, and
// arbitrary byte garbage must never panic the parser.

// genName produces a random valid domain name from the quick source.
func genName(r *rand.Rand) string {
	labels := 1 + r.Intn(4)
	name := ""
	for i := 0; i < labels; i++ {
		n := 1 + r.Intn(12)
		for j := 0; j < n; j++ {
			name += string(rune('a' + r.Intn(26)))
		}
		name += "."
	}
	return name
}

type quickRR struct{ rr RR }

// Generate implements quick.Generator with a random typed payload.
func (quickRR) Generate(r *rand.Rand, _ int) reflect.Value {
	name := genName(r)
	var data RData
	switch r.Intn(8) {
	case 0:
		var b [4]byte
		r.Read(b[:])
		data = &A{Addr: netip.AddrFrom4(b)}
	case 1:
		var b [16]byte
		r.Read(b[:])
		data = &AAAA{Addr: netip.AddrFrom16(b)}
	case 2:
		data = NewNS(genName(r))
	case 3:
		data = &TXT{Strings: []string{genString(r, 80), genString(r, 40)}}
	case 4:
		d := make([]byte, 32)
		r.Read(d)
		data = &DS{KeyTag: uint16(r.Uint32()), Algorithm: uint8(r.Intn(250)), DigestType: 2, Digest: d}
	case 5:
		pk := make([]byte, 1+r.Intn(64))
		r.Read(pk)
		data = &DNSKEY{Flags: uint16(r.Uint32()), Protocol: 3, Algorithm: uint8(r.Intn(250)), PublicKey: pk}
	case 6:
		sig := make([]byte, 1+r.Intn(80))
		r.Read(sig)
		data = &RRSIG{TypeCovered: Type(1 + r.Intn(60)), Algorithm: 13, Labels: uint8(r.Intn(6)),
			OrigTTL: r.Uint32(), Expiration: r.Uint32(), Inception: r.Uint32(),
			KeyTag: uint16(r.Uint32()), SignerName: genName(r), Signature: sig}
	default:
		oct := make([]byte, r.Intn(40))
		r.Read(oct)
		data = &Generic{T: Type(6000 + r.Intn(100)), Octets: oct}
	}
	return reflect.ValueOf(quickRR{RR{Name: name, Class: ClassIN, TTL: r.Uint32() & 0xFFFFFF, Data: data}})
}

func genString(r *rand.Rand, max int) string {
	n := r.Intn(max)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(32 + r.Intn(95))
	}
	return string(b)
}

func TestQuickMessageRoundTrip(t *testing.T) {
	f := func(id uint16, rrs []quickRR) bool {
		if len(rrs) > 20 {
			rrs = rrs[:20]
		}
		m := &Message{ID: id, Response: true}
		for _, q := range rrs {
			m.Answer = append(m.Answer, q.rr)
		}
		wire, err := m.Pack()
		if err != nil {
			t.Logf("pack: %v", err)
			return false
		}
		got, err := Unpack(wire)
		if err != nil {
			t.Logf("unpack: %v", err)
			return false
		}
		if got.ID != id || len(got.Answer) != len(m.Answer) {
			return false
		}
		for i := range m.Answer {
			if !got.Answer[i].Equal(m.Answer[i]) {
				t.Logf("rr %d mismatch: %s vs %s", i, got.Answer[i], m.Answer[i])
				return false
			}
			if got.Answer[i].TTL != m.Answer[i].TTL {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickUnpackNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Unpack panicked on %x: %v", data, r)
			}
		}()
		_, _ = Unpack(data) // errors are fine; panics are not
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickMutatedMessagesNeverPanic(t *testing.T) {
	// Start from valid messages and flip random bytes: a far denser
	// source of nearly-valid adversarial input than pure noise.
	base, err := (&Message{
		ID: 7, Response: true,
		Question: []Question{{Name: "www.example.com.", Type: TypeCDS, Class: ClassIN}},
		Answer: []RR{
			{Name: "www.example.com.", Class: ClassIN, TTL: 300, Data: &TXT{Strings: []string{"hello"}}},
			{Name: "www.example.com.", Class: ClassIN, TTL: 300, Data: NewNS("ns1.example.net.")},
		},
	}).Pack()
	if err != nil {
		t.Fatal(err)
	}
	f := func(pos uint16, val byte) bool {
		mut := append([]byte(nil), base...)
		mut[int(pos)%len(mut)] = val
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on mutation pos=%d val=%d: %v", pos, val, r)
			}
		}()
		_, _ = Unpack(mut)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestQuickCanonicalOrderIsTotal(t *testing.T) {
	f := func(a, b []byte) bool {
		na := bytesToName(a)
		nb := bytesToName(b)
		less := CanonicalNameLess(na, nb)
		greater := CanonicalNameLess(nb, na)
		if na == nb {
			return !less && !greater
		}
		return less != greater // antisymmetric for distinct names
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func bytesToName(b []byte) string {
	if len(b) == 0 {
		return "."
	}
	if len(b) > 30 {
		b = b[:30]
	}
	name := ""
	for i, c := range b {
		name += string(rune('a' + int(c)%26))
		if i%7 == 6 {
			name += "."
		}
	}
	return CanonicalName(name)
}

// canonicalNameLessRef is the label-splitting implementation of RFC 4034
// §6.1 ordering that CanonicalNameLess replaced; it is kept as the
// reference the in-place comparison must agree with.
func canonicalNameLessRef(a, b string) bool {
	la, lb := SplitLabels(CanonicalName(a)), SplitLabels(CanonicalName(b))
	i, j := len(la)-1, len(lb)-1
	for i >= 0 && j >= 0 {
		if la[i] != lb[j] {
			return la[i] < lb[j]
		}
		i--
		j--
	}
	return i < j
}

func TestQuickCanonicalNameLessMatchesReference(t *testing.T) {
	// A four-symbol alphabet makes equal labels, shared suffixes, empty
	// labels (doubled or leading dots) and prefix labels ("a" < "ab")
	// common, so the right-to-left walk meets every branch.
	name := func(b []byte) string {
		out := make([]byte, len(b))
		for i, c := range b {
			out[i] = "ab.-"[c%4]
		}
		return string(out)
	}
	f := func(a, b, suffix []byte, fqdnA, fqdnB bool) bool {
		na, nb := name(a), name(b)
		if s := name(suffix); s != "" {
			na, nb = na+"."+s, nb+"."+s
		}
		if fqdnA {
			na += "."
		}
		if fqdnB {
			nb += "."
		}
		got, want := CanonicalNameLess(na, nb), canonicalNameLessRef(na, nb)
		if got != want {
			t.Logf("CanonicalNameLess(%q, %q) = %v, reference %v", na, nb, got, want)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

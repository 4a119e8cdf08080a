package dnswire

import (
	"bytes"
	"sort"
	"strings"
)

// Canonical forms per RFC 4034 §6, used when constructing the data that
// RRSIGs cover and when ordering RRsets for signing and comparison.

// CanonicalNameWire returns the uncompressed, lowercase wire encoding
// of a domain name.
func CanonicalNameWire(name string) ([]byte, error) {
	return packName(nil, name, nil)
}

// CanonicalRDATA returns the RDATA of rr in canonical form: names
// embedded in the RDATA of the RFC 4034 §6.2 legacy type list are
// lowercased (our typed payloads already normalise names on unpack, so
// the plain uncompressed encoding is canonical).
func CanonicalRDATA(rr RR) ([]byte, error) {
	return RDataWire(rr.Data)
}

// SortCanonical sorts records into canonical RDATA order (RFC 4034
// §6.3): treating each record's canonical RDATA as a left-justified
// octet string. Owner/class/type are assumed uniform (one RRset).
func SortCanonical(rrs []RR) error {
	type keyed struct {
		rr  RR
		key []byte
	}
	ks := make([]keyed, len(rrs))
	for i, rr := range rrs {
		w, err := CanonicalRDATA(rr)
		if err != nil {
			return err
		}
		ks[i] = keyed{rr, w}
	}
	sort.SliceStable(ks, func(i, j int) bool {
		return bytes.Compare(ks[i].key, ks[j].key) < 0
	})
	for i := range ks {
		rrs[i] = ks[i].rr
	}
	return nil
}

// CanonicalNameLess compares two canonical domain names in DNSSEC
// canonical ordering (RFC 4034 §6.1): by reversed label sequence, each
// label compared as an octet string. It walks both names from the right
// in place, without allocating.
func CanonicalNameLess(a, b string) bool {
	a, b = strings.TrimSuffix(a, "."), strings.TrimSuffix(b, ".")
	// moreA/moreB: labels remain; an empty remainder after a dot is
	// still one (empty) label.
	moreA, moreB := a != "", b != ""
	for moreA && moreB {
		i, j := strings.LastIndexByte(a, '.'), strings.LastIndexByte(b, '.')
		if la, lb := a[i+1:], b[j+1:]; la != lb {
			return la < lb
		}
		moreA, moreB = i >= 0, j >= 0
		a, b = a[:max(i, 0)], b[:max(j, 0)]
	}
	return moreB // b has labels left: a is a proper suffix of b
}

// RRsetKey identifies an RRset within a zone or message.
type RRsetKey struct {
	Name  string
	Type  Type
	Class Class
}

// Key returns the RRset key for rr.
func (r RR) Key() RRsetKey {
	return RRsetKey{Name: r.Name, Type: r.Type(), Class: r.Class}
}

// GroupRRsets partitions records into RRsets keyed by (owner, type,
// class), preserving first-seen order inside each set.
func GroupRRsets(rrs []RR) map[RRsetKey][]RR {
	m := make(map[RRsetKey][]RR)
	for _, rr := range rrs {
		k := rr.Key()
		m[k] = append(m[k], rr)
	}
	return m
}

// RRsetEqual reports whether two slices contain the same records
// regardless of order and TTL. It is the consistency comparison the
// scanner applies across nameservers.
func RRsetEqual(a, b []RR) bool {
	if len(a) != len(b) {
		return false
	}
	ak, err := rdataKeys(a)
	if err != nil {
		return false
	}
	bk, err := rdataKeys(b)
	if err != nil {
		return false
	}
	sort.Strings(ak)
	sort.Strings(bk)
	for i := range ak {
		if ak[i] != bk[i] {
			return false
		}
	}
	return true
}

func rdataKeys(rrs []RR) ([]string, error) {
	keys := make([]string, len(rrs))
	for i, rr := range rrs {
		w, err := CanonicalRDATA(rr)
		if err != nil {
			return nil, err
		}
		keys[i] = CanonicalName(rr.Name) + "|" + rr.Type().String() + "|" + string(w)
	}
	return keys, nil
}

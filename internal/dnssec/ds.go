package dnssec

import (
	"crypto/sha1"
	"crypto/sha256"
	"crypto/sha512"
	"fmt"
	"time"

	"dnssecboot/internal/dnswire"
)

// DSFromKey computes the DS record for a DNSKEY at owner using the
// given digest type (RFC 4034 §5.1.4: digest over owner-name wire form
// followed by the DNSKEY RDATA).
func DSFromKey(owner string, key *dnswire.DNSKEY, digestType uint8) (*dnswire.DS, error) {
	nw, err := dnswire.CanonicalNameWire(owner)
	if err != nil {
		return nil, err
	}
	rdata, err := dnswire.RDataWire(key)
	if err != nil {
		return nil, err
	}
	var digest []byte
	switch digestType {
	case dnswire.DigestSHA1:
		sum := sha1.Sum(append(nw, rdata...))
		digest = sum[:]
	case dnswire.DigestSHA256:
		sum := sha256.Sum256(append(nw, rdata...))
		digest = sum[:]
	case dnswire.DigestSHA384:
		sum := sha512.Sum384(append(nw, rdata...))
		digest = sum[:]
	default:
		return nil, fmt.Errorf("dnssec: unsupported DS digest type %d", digestType)
	}
	return &dnswire.DS{
		KeyTag:     KeyTag(key),
		Algorithm:  key.Algorithm,
		DigestType: digestType,
		Digest:     digest,
	}, nil
}

// DSMatchesKey reports whether ds is a correct digest of key at owner.
func DSMatchesKey(owner string, ds *dnswire.DS, key *dnswire.DNSKEY) bool {
	if ds.KeyTag != KeyTag(key) || ds.Algorithm != key.Algorithm {
		return false
	}
	computed, err := DSFromKey(owner, key, ds.DigestType)
	if err != nil {
		return false
	}
	return string(computed.Digest) == string(ds.Digest)
}

// KeyForDS returns the first DNSKEY in keys (DNSKEY RRs at owner) that
// ds authenticates, or nil.
func KeyForDS(owner string, ds *dnswire.DS, keys []dnswire.RR) *dnswire.RR {
	for i, rr := range keys {
		key, ok := rr.Data.(*dnswire.DNSKEY)
		if !ok {
			continue
		}
		if DSMatchesKey(owner, ds, key) {
			return &keys[i]
		}
	}
	return nil
}

// VerifyChainLink authenticates a zone's DNSKEY RRset against a DS set
// from the parent: some DS must match a present DNSKEY, and the DNSKEY
// RRset must carry a valid RRSIG made by (one of) the matched key(s).
// This is the core parent→child step of chain validation.
func VerifyChainLink(owner string, dsSet []dnswire.RR, keySet []dnswire.RR, sigs []dnswire.RR, now time.Time) error {
	var anchors []dnswire.RR
	for _, rr := range dsSet {
		ds, ok := rr.Data.(*dnswire.DS)
		if !ok {
			continue
		}
		if k := KeyForDS(owner, ds, keySet); k != nil {
			anchors = append(anchors, *k)
		}
	}
	if len(anchors) == 0 {
		return ErrNoMatchingDS
	}
	covering := SigsCovering(sigs, owner, dnswire.TypeDNSKEY)
	return VerifyRRset(keySet, covering, anchors, now)
}

// CDSFromKey derives the CDS payload that a child operator publishes
// for a key (RFC 7344 §4).
func CDSFromKey(owner string, key *dnswire.DNSKEY, digestType uint8) (*dnswire.CDS, error) {
	ds, err := DSFromKey(owner, key, digestType)
	if err != nil {
		return nil, err
	}
	return &dnswire.CDS{DS: *ds}, nil
}

// DeleteCDS returns the RFC 8078 §4 CDS DELETE sentinel ("0 0 0 00").
func DeleteCDS() *dnswire.CDS {
	return &dnswire.CDS{DS: dnswire.DS{KeyTag: 0, Algorithm: dnswire.AlgDELETE, DigestType: 0, Digest: []byte{0}}}
}

// DeleteCDNSKEY returns the RFC 8078 §4 CDNSKEY DELETE sentinel
// ("0 3 0 AA==").
func DeleteCDNSKEY() *dnswire.CDNSKEY {
	return &dnswire.CDNSKEY{DNSKEY: dnswire.DNSKEY{Flags: 0, Protocol: 3, Algorithm: dnswire.AlgDELETE, PublicKey: []byte{0}}}
}

// IsDeleteSet reports whether a CDS/CDNSKEY RRset is a deletion request:
// RFC 8078 requires the delete sentinel to be the only record present.
func IsDeleteSet(rrs []dnswire.RR) bool {
	if len(rrs) == 0 {
		return false
	}
	for _, rr := range rrs {
		switch d := rr.Data.(type) {
		case *dnswire.CDS:
			if !d.IsDelete() {
				return false
			}
		case *dnswire.CDNSKEY:
			if !d.IsDelete() {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// CDSMatchesDNSKEYs checks RFC 8078 §3's acceptance precondition: every
// non-delete CDS record must correspond to a DNSKEY actually present in
// the zone, so that installing the resulting DS set cannot break the
// delegation. It returns the subset of keys referenced.
func CDSMatchesDNSKEYs(owner string, cds []dnswire.RR, keys []dnswire.RR) (matched []dnswire.RR, ok bool) {
	for _, rr := range cds {
		var ds *dnswire.DS
		switch d := rr.Data.(type) {
		case *dnswire.CDS:
			if d.IsDelete() {
				continue
			}
			ds = &d.DS
		case *dnswire.DS:
			ds = d
		default:
			continue
		}
		k := KeyForDS(owner, ds, keys)
		if k == nil {
			return nil, false
		}
		matched = append(matched, *k)
	}
	return matched, true
}

// DSSetFromCDS converts a CDS RRset into the DS records a parent would
// install, skipping delete sentinels.
func DSSetFromCDS(cds []dnswire.RR) []dnswire.RR {
	var out []dnswire.RR
	for _, rr := range cds {
		c, ok := rr.Data.(*dnswire.CDS)
		if !ok || c.IsDelete() {
			continue
		}
		dup := c.DS
		dup.Digest = append([]byte(nil), c.Digest...)
		out = append(out, dnswire.RR{
			Name:  rr.Name,
			Class: rr.Class,
			TTL:   rr.TTL,
			Data:  &dup,
		})
	}
	return out
}

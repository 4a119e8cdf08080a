package zone

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"dnssecboot/internal/dnssec"
	"dnssecboot/internal/dnswire"
)

// SignConfig controls zone signing.
type SignConfig struct {
	// Now anchors the signature validity window; zero means time.Now().
	Now time.Time
	// Expired forces all produced signatures to be already expired,
	// modelling decayed deployments.
	Expired bool
	// NSECTTL overrides the NSEC record TTL; zero uses the SOA minimum.
	NSECTTL uint32
	// Algorithm selects the key algorithm for GenerateKeys; zero means
	// ECDSA P-256 (algorithm 13, the most common in the wild).
	Algorithm uint8
	// SkipNSEC omits the NSEC chain (and its signatures). Large
	// registry zones in the simulator use this: the scan pipeline never
	// validates their denial proofs, and signing hundreds of thousands
	// of NSEC records would dominate generation time.
	SkipNSEC bool
	// UseNSEC3 builds an RFC 5155 NSEC3 chain (with NSEC3PARAM) instead
	// of plain NSEC. NSEC3Iterations and NSEC3Salt parameterise the
	// hashing; modern guidance (RFC 9276) is zero iterations and an
	// empty salt, which are the defaults.
	UseNSEC3        bool
	NSEC3Iterations uint16
	NSEC3Salt       []byte
}

// GenerateKeys creates and installs a KSK+ZSK pair for the zone,
// replacing any previous keys. rng may be nil.
func (z *Zone) GenerateKeys(cfg SignConfig, rng io.Reader) error {
	alg := cfg.Algorithm
	if alg == 0 {
		alg = dnswire.AlgECDSAP256SHA256
	}
	ksk, err := dnssec.GenerateKey(alg, dnswire.DNSKEYFlagZone|dnswire.DNSKEYFlagSEP, rng)
	if err != nil {
		return err
	}
	zsk, err := dnssec.GenerateKey(alg, dnswire.DNSKEYFlagZone, rng)
	if err != nil {
		return err
	}
	z.Keys = []*dnssec.Key{ksk, zsk}
	return nil
}

// Sign signs the zone: publishes the DNSKEY RRset, builds the NSEC
// chain, and generates RRSIGs for every authoritative RRset. Previous
// DNSSEC records (DNSKEY/RRSIG/NSEC) are replaced. Delegation NS sets
// and occluded (glue) names are left unsigned, per RFC 4035 §2.2.
func (z *Zone) Sign(cfg SignConfig) error {
	if len(z.Keys) == 0 {
		return errors.New("zone: no keys; call GenerateKeys first")
	}
	soa := z.SOA()
	if soa == nil {
		return errors.New("zone: cannot sign a zone without a SOA")
	}
	now := cfg.Now
	if now.IsZero() {
		now = timeNow()
	}
	opts := dnssec.ValidityWindow(now, z.Origin)
	if cfg.Expired {
		opts = dnssec.ExpiredWindow(now, z.Origin)
	}

	z.Unsign()

	ksk, zsk := z.signingKeys()

	// Publish DNSKEYs.
	keyTTL := uint32(3600)
	for _, k := range z.Keys {
		z.MustAdd(dnswire.RR{Name: z.Origin, Class: z.Class, TTL: keyTTL, Data: k.DNSKEY()})
	}

	// Build the NSEC chain over authoritative names (cuts included,
	// occluded names excluded).
	nsecTTL := cfg.NSECTTL
	if nsecTTL == 0 {
		nsecTTL = soa.Data.(*dnswire.SOA).Minimum
	}
	var authNames []string
	for _, n := range z.Names() {
		if z.Occluded(n) {
			continue
		}
		authNames = append(authNames, n)
	}
	if cfg.SkipNSEC {
		return z.signRRsets(authNames, ksk, zsk, opts)
	}
	if cfg.UseNSEC3 {
		nsec3Names, err := z.buildNSEC3Chain(authNames, nsecTTL, cfg)
		if err != nil {
			return err
		}
		return z.signRRsets(append(authNames, nsec3Names...), ksk, zsk, opts)
	}
	for i, name := range authNames {
		next := authNames[(i+1)%len(authNames)]
		types := z.TypesAt(name)
		types = append(types, dnswire.TypeRRSIG, dnswire.TypeNSEC)
		types = dedupeSortTypes(types)
		if z.DelegationAt(name) {
			// At a cut only NS (+DS) appear in the bitmap; no RRSIG for
			// the NS set itself but the NSEC/DS at the cut are signed.
			types = filterCutTypes(types, z, name)
		}
		z.MustAdd(dnswire.RR{Name: name, Class: z.Class, TTL: nsecTTL,
			Data: &dnswire.NSEC{NextDomain: next, Types: types}})
	}

	return z.signRRsets(authNames, ksk, zsk, opts)
}

// signRRsets signs every authoritative RRset at the given names. The
// DNSKEY RRset is signed by every SEP key so that double-signature key
// rollovers (RFC 7344 §6) keep a chain to both the old and the new DS.
func (z *Zone) signRRsets(authNames []string, ksk, zsk *dnssec.Key, opts dnssec.SignOptions) error {
	var seps []*dnssec.Key
	for _, k := range z.Keys {
		if k.IsSEP() {
			seps = append(seps, k)
		}
	}
	if len(seps) == 0 {
		seps = []*dnssec.Key{ksk}
	}
	for _, name := range authNames {
		isCut := z.DelegationAt(name)
		for _, typ := range z.TypesAt(name) {
			if typ == dnswire.TypeRRSIG {
				continue
			}
			if isCut && typ == dnswire.TypeNS {
				continue // delegation NS is not authoritative here
			}
			keys := []*dnssec.Key{zsk}
			if typ == dnswire.TypeDNSKEY {
				keys = seps
			}
			set := z.RRset(name, typ)
			for _, key := range keys {
				sig, err := dnssec.SignRRset(set, key, opts)
				if err != nil {
					return fmt.Errorf("zone: signing %s/%s: %w", name, typ, err)
				}
				z.MustAdd(sig)
			}
		}
	}
	return nil
}

// buildNSEC3Chain hashes every authoritative name, sorts the hashes,
// and installs the NSEC3 records plus the apex NSEC3PARAM (RFC 5155
// §7.1). It returns the NSEC3 owner names so they can be signed.
func (z *Zone) buildNSEC3Chain(authNames []string, ttl uint32, cfg SignConfig) ([]string, error) {
	z.MustAdd(dnswire.RR{Name: z.Origin, Class: z.Class, TTL: 0, Data: &dnswire.NSEC3PARAM{
		HashAlg: dnssec.NSEC3HashAlgSHA1, Iterations: cfg.NSEC3Iterations, Salt: cfg.NSEC3Salt,
	}})
	type hashed struct {
		hash  []byte
		owner string
		name  string
	}
	entries := make([]hashed, 0, len(authNames))
	for _, name := range authNames {
		h, err := dnssec.NSEC3Hash(name, cfg.NSEC3Iterations, cfg.NSEC3Salt)
		if err != nil {
			return nil, err
		}
		owner, err := dnssec.NSEC3Owner(name, z.Origin, cfg.NSEC3Iterations, cfg.NSEC3Salt)
		if err != nil {
			return nil, err
		}
		entries = append(entries, hashed{hash: h, owner: owner, name: name})
	}
	sort.Slice(entries, func(i, j int) bool {
		return bytes.Compare(entries[i].hash, entries[j].hash) < 0
	})
	var owners []string
	for i, e := range entries {
		next := entries[(i+1)%len(entries)]
		types := z.TypesAt(e.name)
		types = append(types, dnswire.TypeRRSIG)
		if e.name == z.Origin {
			types = append(types, dnswire.TypeNSEC3PARAM)
		}
		types = dedupeSortTypes(types)
		if z.DelegationAt(e.name) {
			types = filterCutTypes(types, z, e.name)
		}
		z.MustAdd(dnswire.RR{Name: e.owner, Class: z.Class, TTL: ttl, Data: &dnswire.NSEC3{
			HashAlg:    dnssec.NSEC3HashAlgSHA1,
			Iterations: cfg.NSEC3Iterations,
			Salt:       cfg.NSEC3Salt,
			NextHashed: next.hash,
			Types:      types,
		}})
		owners = append(owners, e.owner)
	}
	return owners, nil
}

// ResignRRset refreshes the RRSIG over one RRset (owner, typ) in an
// already-signed zone, e.g. after a registry updates a DS set in place.
// Signatures over other RRsets at owner are preserved.
func (z *Zone) ResignRRset(owner string, typ dnswire.Type, cfg SignConfig) error {
	if len(z.Keys) == 0 {
		return errors.New("zone: no keys")
	}
	now := cfg.Now
	if now.IsZero() {
		now = timeNow()
	}
	opts := dnssec.ValidityWindow(now, z.Origin)
	if cfg.Expired {
		opts = dnssec.ExpiredWindow(now, z.Origin)
	}
	ksk, zsk := z.signingKeys()
	key := zsk
	if typ == dnswire.TypeDNSKEY {
		key = ksk
	}
	// Drop existing signatures covering typ, keep the rest.
	old := z.RRset(owner, dnswire.TypeRRSIG)
	z.RemoveSet(owner, dnswire.TypeRRSIG)
	for _, rr := range old {
		if rr.Data.(*dnswire.RRSIG).TypeCovered != typ {
			z.MustAdd(rr)
		}
	}
	set := z.RRset(owner, typ)
	if len(set) == 0 {
		return nil // RRset deleted entirely; nothing to sign
	}
	sig, err := dnssec.SignRRset(set, key, opts)
	if err != nil {
		return err
	}
	z.MustAdd(sig)
	return nil
}

// Unsign removes all DNSSEC records (DNSKEY, RRSIG, NSEC, NSEC3,
// NSEC3PARAM) from the zone, leaving keys in place.
func (z *Zone) Unsign() {
	for _, name := range z.Names() {
		for _, typ := range []dnswire.Type{dnswire.TypeRRSIG, dnswire.TypeNSEC, dnswire.TypeNSEC3, dnswire.TypeNSEC3PARAM, dnswire.TypeDNSKEY} {
			z.RemoveSet(name, typ)
		}
	}
}

// PublishCDS installs CDS and CDNSKEY RRsets derived from the zone's
// KSK: one CDS per digest type given plus the matching CDNSKEY. This is
// the RFC 7344 operator-side behaviour.
func (z *Zone) PublishCDS(digestTypes ...uint8) error {
	if len(z.Keys) == 0 {
		return errors.New("zone: no keys to derive CDS from")
	}
	ksk, _ := z.signingKeys()
	return z.PublishCDSFor(ksk, digestTypes...)
}

// PublishCDSFor installs CDS/CDNSKEY derived from a specific key —
// during a rollover the CDS names the incoming KSK while the zone is
// still chained through the outgoing one.
func (z *Zone) PublishCDSFor(ksk *dnssec.Key, digestTypes ...uint8) error {
	if len(digestTypes) == 0 {
		digestTypes = []uint8{dnswire.DigestSHA256}
	}
	z.RemoveSet(z.Origin, dnswire.TypeCDS)
	z.RemoveSet(z.Origin, dnswire.TypeCDNSKEY)
	for _, dt := range digestTypes {
		cds, err := dnssec.CDSFromKey(z.Origin, ksk.DNSKEY(), dt)
		if err != nil {
			return err
		}
		z.MustAdd(dnswire.RR{Name: z.Origin, Class: z.Class, TTL: 3600, Data: cds})
	}
	z.MustAdd(dnswire.RR{Name: z.Origin, Class: z.Class, TTL: 3600,
		Data: &dnswire.CDNSKEY{DNSKEY: *ksk.DNSKEY()}})
	return nil
}

// PublishDeleteCDS installs the RFC 8078 §4 deletion request as the
// zone's CDS/CDNSKEY content.
func (z *Zone) PublishDeleteCDS() {
	z.RemoveSet(z.Origin, dnswire.TypeCDS)
	z.RemoveSet(z.Origin, dnswire.TypeCDNSKEY)
	z.MustAdd(dnswire.RR{Name: z.Origin, Class: z.Class, TTL: 0, Data: dnssec.DeleteCDS()})
	z.MustAdd(dnswire.RR{Name: z.Origin, Class: z.Class, TTL: 0, Data: dnssec.DeleteCDNSKEY()})
}

// SignalRecords returns the RFC 9615 signalling records that the
// operator of nsHost must publish for child: copies of child's CDS and
// CDNSKEY RRsets at _dsboot.<child>._signal.<nsHost>.
func SignalRecords(child string, nsHost string, cdsSet []dnswire.RR) ([]dnswire.RR, error) {
	owner, err := SignalName(child, nsHost)
	if err != nil {
		return nil, err
	}
	var out []dnswire.RR
	for _, rr := range cdsSet {
		out = append(out, dnswire.RR{Name: owner, Class: rr.Class, TTL: rr.TTL, Data: rr.Data})
	}
	return out, nil
}

// SignalName computes _dsboot.<child>._signal.<nsHost> and validates
// the length limit the paper discusses (names over 255 octets cannot be
// signalled).
func SignalName(child, nsHost string) (string, error) {
	name := "_dsboot." + child + "_signal." + nsHost
	if _, err := dnswire.NameWireLength(name); err != nil {
		return "", fmt.Errorf("zone: signal name for %s under %s: %w", child, nsHost, err)
	}
	return name, nil
}

// SignalZoneName returns the _signal zone under a nameserver hostname,
// e.g. _signal.ns1.example.net.
func SignalZoneName(nsHost string) string {
	return dnswire.Join("_signal", nsHost)
}

func dedupeSortTypes(types []dnswire.Type) []dnswire.Type {
	seen := make(map[dnswire.Type]bool, len(types))
	out := types[:0]
	for _, t := range types {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// filterCutTypes restricts an NSEC bitmap at a delegation to the types
// that are authoritative at a cut: NS, DS and NSEC itself (RFC 4035
// §2.3: the parent zone lists only NS/DS/NSEC/RRSIG at cuts).
func filterCutTypes(types []dnswire.Type, z *Zone, name string) []dnswire.Type {
	out := types[:0]
	for _, t := range types {
		switch t {
		// The NSEC at the cut is itself signed, so RRSIG always appears.
		case dnswire.TypeNS, dnswire.TypeDS, dnswire.TypeNSEC, dnswire.TypeRRSIG:
			out = append(out, t)
		}
	}
	return out
}

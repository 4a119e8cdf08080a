package ecosystem

import (
	"context"
	"testing"

	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/server"
)

// TestGoldenWorldNamesAreCanonical pins the name invariant: every name
// the generator builds and every name the scanner records is already
// lowercase and fully qualified, because only the boundaries listed on
// dnswire.CanonicalName normalise. A boundary that stops normalising
// (or a generator path that bypasses one) lets a non-canonical name
// into the world, and this test names where.
func TestGoldenWorldNamesAreCanonical(t *testing.T) {
	eco := smallWorld(t)
	check := func(where, name string) {
		t.Helper()
		if dnswire.CanonicalName(name) != name {
			t.Errorf("%s: non-canonical name %q", where, name)
		}
	}
	checkRRs := func(where string, rrs []dnswire.RR) {
		t.Helper()
		for _, rr := range rrs {
			for _, n := range rrNames(rr) {
				check(where+" "+rr.Type().String(), n)
			}
		}
	}

	servers := map[*server.Server]bool{eco.rootSrv: true}
	for _, tld := range eco.tlds {
		servers[tld.srv] = true
	}
	for _, op := range eco.ops {
		servers[op.srv] = true
		if op.variantSrv != nil {
			servers[op.variantSrv] = true
		}
		for _, h := range op.hosts {
			check("operator host", h)
		}
	}
	zones := 0
	for srv := range servers {
		for _, origin := range srv.Zones() {
			z := srv.Zone(origin)
			check("zone origin", z.Origin)
			checkRRs("zone "+z.Origin, z.All())
			zones++
		}
	}
	if zones == 0 {
		t.Fatal("no zones found in the world")
	}
	checkRRs("trust anchor", eco.TrustAnchor)
	for _, target := range eco.Targets {
		check("target", target)
	}

	observations, err := newScanner(eco, true).ScanAll(context.Background(), eco.Targets)
	if err != nil {
		t.Fatal(err)
	}
	for _, zo := range observations {
		where := "observation " + zo.Zone
		check(where+" Zone", zo.Zone)
		if zo.ParentZone != "" {
			check(where+" ParentZone", zo.ParentZone)
		}
		for _, h := range zo.ParentNS {
			check(where+" ParentNS", h)
		}
		for _, h := range zo.ChildNS {
			check(where+" ChildNS", h)
		}
		for _, set := range [][]dnswire.RR{zo.DS, zo.DSSigs, zo.DNSKEY, zo.DNSKEYSigs} {
			checkRRs(where, set)
		}
		for _, ns := range zo.PerNS {
			check(where+" PerNS.Host", ns.Host)
			for _, set := range [][]dnswire.RR{ns.CDS, ns.CDNSKEY, ns.CDSSigs, ns.CDNSKEYSigs} {
				checkRRs(where+" PerNS", set)
			}
		}
		for _, sig := range zo.Signals {
			check(where+" Signal.NSHost", sig.NSHost)
			check(where+" Signal.Owner", sig.Owner)
			checkRRs(where+" Signal", sig.Records)
			checkRRs(where+" Signal", sig.Sigs)
		}
	}
	t.Logf("checked %d zones, %d targets, %d observations", zones, len(eco.Targets), len(observations))
}

// rrNames returns the owner and every name-valued RDATA field of rr.
func rrNames(rr dnswire.RR) []string {
	names := []string{rr.Name}
	switch d := rr.Data.(type) {
	case *dnswire.NS:
		names = append(names, d.Target)
	case *dnswire.CNAME:
		names = append(names, d.Target)
	case *dnswire.DNAME:
		names = append(names, d.Target)
	case *dnswire.PTR:
		names = append(names, d.Target)
	case *dnswire.SOA:
		names = append(names, d.MName, d.RName)
	case *dnswire.MX:
		names = append(names, d.Host)
	case *dnswire.SRV:
		names = append(names, d.Target)
	case *dnswire.RRSIG:
		names = append(names, d.SignerName)
	case *dnswire.NSEC:
		names = append(names, d.NextDomain)
	}
	return names
}

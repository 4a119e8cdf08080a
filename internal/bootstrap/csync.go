package bootstrap

import (
	"context"

	"dnssecboot/internal/dnssec"
	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/zone"
)

// CSYNC flag bits (RFC 7477 §2.1.1.2).
const (
	// CSYNCImmediate requests processing regardless of SOA serial.
	CSYNCImmediate uint16 = 0x0001
	// CSYNCSOAMinimum gates processing on the child's SOA serial having
	// reached the CSYNC's serial.
	CSYNCSOAMinimum uint16 = 0x0002
)

// ProcessCSYNC implements the parental-agent side of RFC 7477
// (child-to-parent synchronisation — the mechanism the paper's
// conclusion points to as future work). The child must be securely
// delegated and its CSYNC record DNSSEC-valid; the types listed in the
// bitmap (NS, and A/AAAA glue) are then copied from the child apex to
// the parent zone.
func (r *Registry) ProcessCSYNC(ctx context.Context, child string) (*Decision, error) {
	d := &Decision{Child: child}
	obs := r.Scanner.ScanZone(ctx, child)
	if obs.ResolveErr != "" {
		d.fail("zone does not resolve: %s", obs.ResolveErr)
		return d, nil
	}
	// RFC 7477 §3: the CSYNC RRset MUST be validated; an insecure
	// delegation can never use CSYNC.
	if !obs.HasDS() || !obs.ChainValid {
		d.fail("delegation is not securely validated; CSYNC requires DNSSEC")
		return d, nil
	}

	resolverR := r.Scanner.Validator().R
	answer, _, err := resolverR.Lookup(ctx, child, dnswire.TypeCSYNC)
	if err != nil {
		d.fail("CSYNC lookup failed: %v", err)
		return d, nil
	}
	var csyncSet, csyncSigs []dnswire.RR
	var csync *dnswire.CSYNC
	for _, rr := range answer {
		switch data := rr.Data.(type) {
		case *dnswire.CSYNC:
			csyncSet = append(csyncSet, rr)
			csync = data
		case *dnswire.RRSIG:
			if data.TypeCovered == dnswire.TypeCSYNC {
				csyncSigs = append(csyncSigs, rr)
			}
		}
	}
	if csync == nil {
		d.fail("no CSYNC record published")
		return d, nil
	}
	if len(csyncSet) > 1 {
		d.fail("more than one CSYNC record (RFC 7477 forbids this)")
		return d, nil
	}
	if err := dnssec.VerifyRRset(csyncSet, csyncSigs, obs.DNSKEY, r.Now); err != nil {
		d.fail("CSYNC does not validate: %v", err)
		return d, nil
	}

	// Serial gating.
	if csync.Flags&CSYNCImmediate == 0 {
		if csync.Flags&CSYNCSOAMinimum == 0 {
			d.fail("neither immediate nor soaminimum set; nothing authorises processing")
			return d, nil
		}
		serial, ok := r.childSOASerial(ctx, child)
		if !ok {
			d.fail("cannot determine child SOA serial")
			return d, nil
		}
		if serial < csync.SOASerial {
			d.fail("child SOA serial %d below CSYNC serial %d", serial, csync.SOASerial)
			return d, nil
		}
	}

	// Apply the listed types.
	var doNS, doA, doAAAA bool
	for _, t := range csync.Types {
		switch t {
		case dnswire.TypeNS:
			doNS = true
		case dnswire.TypeA:
			doA = true
		case dnswire.TypeAAAA:
			doAAAA = true
		default:
			d.fail("CSYNC lists unsupported type %s", t)
			return d, nil
		}
	}
	if !doNS && !doA && !doAAAA {
		d.fail("CSYNC lists no synchronisable types")
		return d, nil
	}
	d.Eligible = true
	if r.DryRun {
		return d, nil
	}

	if doNS {
		childNS, _, err := resolverR.Lookup(ctx, child, dnswire.TypeNS)
		if err != nil {
			d.fail("child NS lookup failed: %v", err)
			d.Eligible = false
			return d, nil
		}
		r.Parent.RemoveSet(child, dnswire.TypeNS)
		hosts := map[string]bool{}
		for _, rr := range childNS {
			if ns, ok := rr.Data.(*dnswire.NS); ok && rr.Name == child {
				if err := r.Parent.Add(dnswire.RR{Name: child, Class: rr.Class, TTL: rr.TTL, Data: ns}); err != nil {
					return d, err
				}
				hosts[ns.Target] = true
			}
		}
		if doA || doAAAA {
			if err := r.syncGlue(ctx, child, hosts, doA, doAAAA); err != nil {
				return d, err
			}
		}
	}
	d.Installed = true
	return d, nil
}

// syncGlue refreshes in-bailiwick glue records for the delegation.
func (r *Registry) syncGlue(ctx context.Context, child string, hosts map[string]bool, doA, doAAAA bool) error {
	resolverR := r.Scanner.Validator().R
	for host := range hosts {
		if !dnswire.IsSubdomain(host, child) {
			continue // out-of-bailiwick hosts carry no glue
		}
		if doA {
			r.Parent.RemoveSet(host, dnswire.TypeA)
		}
		if doAAAA {
			r.Parent.RemoveSet(host, dnswire.TypeAAAA)
		}
		addrs, err := resolverR.AddrsOf(ctx, host)
		if err != nil {
			continue
		}
		for _, a := range addrs {
			var data dnswire.RData
			switch {
			case a.Is4() && doA:
				data = &dnswire.A{Addr: a}
			case a.Is6() && doAAAA:
				data = &dnswire.AAAA{Addr: a}
			default:
				continue
			}
			if err := r.Parent.Add(dnswire.RR{Name: host, Class: dnswire.ClassIN, TTL: 3600, Data: data}); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *Registry) childSOASerial(ctx context.Context, child string) (uint32, bool) {
	answer, _, err := r.Scanner.Validator().R.Lookup(ctx, child, dnswire.TypeSOA)
	if err != nil {
		return 0, false
	}
	for _, rr := range answer {
		if soa, ok := rr.Data.(*dnswire.SOA); ok {
			return soa.Serial, true
		}
	}
	return 0, false
}

// PublishCSYNC is the operator-side helper: install a CSYNC record at
// the zone apex advertising that the parent should copy the listed
// types, and re-sign it.
func PublishCSYNC(z *zone.Zone, flags uint16, types []dnswire.Type, cfg zone.SignConfig) error {
	soa := z.SOA()
	serial := uint32(0)
	if soa != nil {
		serial = soa.Data.(*dnswire.SOA).Serial
	}
	z.RemoveSet(z.Origin, dnswire.TypeCSYNC)
	if err := z.Add(dnswire.RR{Name: z.Origin, Class: dnswire.ClassIN, TTL: 3600,
		Data: &dnswire.CSYNC{SOASerial: serial, Flags: flags, Types: types}}); err != nil {
		return err
	}
	if z.IsSigned() {
		return z.ResignRRset(z.Origin, dnswire.TypeCSYNC, cfg)
	}
	return nil
}

package scan

import (
	"context"
	"fmt"

	"dnssecboot/internal/dnswire"
)

// WalkZone enumerates a signed zone's authoritative names by following
// its NSEC chain (the classic "zone walking" technique measurement
// studies use when AXFR is unavailable — NSEC makes signed zones
// enumerable by design). It returns the names in chain order, starting
// at the apex. Zones using NSEC3 are not walkable this way and return
// an error, as do unsigned zones.
func (s *Scanner) WalkZone(ctx context.Context, zoneName string) ([]string, error) {
	d, err := s.cfg.Resolver.Delegation(ctx, zoneName)
	if err != nil {
		return nil, err
	}
	addrs := s.nsAddrs(ctx, d.NSHosts(), d.Glue)
	if len(addrs) == 0 {
		return nil, fmt.Errorf("scan: no reachable nameservers for %s", zoneName)
	}

	nextOf := func(name string) (string, error) {
		var lastErr error
		for _, p := range addrs {
			resp, err := s.exchange(ctx, p.addr, name, dnswire.TypeNSEC)
			if err != nil {
				lastErr = err
				continue
			}
			if resp.Rcode != dnswire.RcodeNoError {
				lastErr = fmt.Errorf("scan: %s for %s/NSEC", resp.Rcode, name)
				continue
			}
			for _, rr := range resp.Answer {
				if nsec, ok := rr.Data.(*dnswire.NSEC); ok && rr.Name == name {
					return nsec.NextDomain, nil
				}
			}
			// No NSEC at this name: NSEC3 zone or unsigned.
			for _, rr := range resp.Answer {
				if rr.Type() == dnswire.TypeNSEC3 {
					return "", fmt.Errorf("scan: %s uses NSEC3; not walkable", zoneName)
				}
			}
			return "", fmt.Errorf("scan: no NSEC at %s (zone unsigned or NSEC3)", name)
		}
		if lastErr == nil {
			lastErr = fmt.Errorf("scan: no server answered for %s", name)
		}
		return "", lastErr
	}

	names := []string{zoneName}
	const maxNames = 1_000_000 // runaway-chain backstop
	cur := zoneName
	for len(names) < maxNames {
		next, err := nextOf(cur)
		if err != nil {
			return names, err
		}
		if next == zoneName {
			return names, nil // chain closed
		}
		if !dnswire.IsSubdomain(next, zoneName) {
			return names, fmt.Errorf("scan: NSEC chain escaped the zone at %s → %s", cur, next)
		}
		names = append(names, next)
		cur = next
	}
	return names, fmt.Errorf("scan: NSEC chain exceeds %d names", maxNames)
}

package dnssec

import (
	"dnssecboot/internal/dnswire"
)

// NSEC denial-of-existence helpers (RFC 4035 §5.4). The scanner uses
// these to check that negative answers from signed zones are properly
// authenticated.

// NSECCoversName reports whether the NSEC record rr (owner→next) proves
// that name does not exist: owner < name < next in canonical order,
// handling the last-NSEC wraparound where next is the zone apex.
func NSECCoversName(rr dnswire.RR, name string) bool {
	nsec, ok := rr.Data.(*dnswire.NSEC)
	if !ok {
		return false
	}
	owner, next := rr.Name, nsec.NextDomain
	if name == owner || name == next {
		return false
	}
	if dnswire.CanonicalNameLess(owner, next) {
		return dnswire.CanonicalNameLess(owner, name) && dnswire.CanonicalNameLess(name, next)
	}
	// Wraparound: next is the apex, so the interval is (owner, apex-end].
	return dnswire.CanonicalNameLess(owner, name) || dnswire.CanonicalNameLess(name, next)
}

// NSECProvesNoData reports whether rr is an NSEC at exactly name whose
// type bitmap omits typ — the NODATA proof shape.
func NSECProvesNoData(rr dnswire.RR, name string, typ dnswire.Type) bool {
	nsec, ok := rr.Data.(*dnswire.NSEC)
	if !ok {
		return false
	}
	if rr.Name != name {
		return false
	}
	for _, t := range nsec.Types {
		if t == typ {
			return false
		}
	}
	return true
}

// CheckDenial inspects the authority section of a negative response and
// reports whether it carries an NSEC proof for (name, typ): either a
// NODATA bitmap proof or a covering-interval NXDOMAIN proof.
func CheckDenial(authority []dnswire.RR, name string, typ dnswire.Type) bool {
	for _, rr := range authority {
		if rr.Type() != dnswire.TypeNSEC {
			continue
		}
		if NSECProvesNoData(rr, name, typ) || NSECCoversName(rr, name) {
			return true
		}
	}
	return false
}

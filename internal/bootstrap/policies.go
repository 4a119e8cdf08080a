package bootstrap

import (
	"context"
	"time"

	"dnssecboot/internal/dnssec"
	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/scan"
)

// The RFC 8078-era acceptance policies the paper's Appendix C lists as
// the pre-RFC 9615 alternatives. Each is a Policy: it evaluates whether
// an unsigned delegation's CDS may be accepted, without the
// cryptographic authentication RFC 9615 provides.

// Policy decides whether a child's CDS may be trusted for
// bootstrapping.
type Policy interface {
	// Evaluate returns a Decision; Eligible decisions carry the DS set
	// to install.
	Evaluate(ctx context.Context, child string) (*Decision, error)
	// Name identifies the policy in reports.
	Name() string
}

// observeCDS scans the child and returns its consistent CDS set (with
// failures recorded into d), plus the observation.
func observeCDS(ctx context.Context, r *Registry, child string, d *Decision) (*scan.ZoneObservation, []dnswire.RR) {
	obs := r.Scanner.ScanZone(ctx, child)
	if obs.ResolveErr != "" {
		d.fail("zone does not resolve: %s", obs.ResolveErr)
		return obs, nil
	}
	if obs.HasDS() {
		d.fail("delegation already has DS records")
		return obs, nil
	}
	cds := r.consistentCDS(obs, d)
	if len(cds) == 0 && len(d.Reasons) == 0 {
		d.fail("no CDS records published")
	}
	if dnssec.IsDeleteSet(cds) {
		d.fail("CDS is a deletion request")
	}
	return obs, cds
}

// validateAndInstall performs the RFC 8078 §3 mandatory check (the
// zone must validate under the new DS) and installs.
func validateAndInstall(r *Registry, obs *scan.ZoneObservation, cds []dnswire.RR, d *Decision) error {
	if len(d.Reasons) > 0 {
		return nil
	}
	newDS := dedupeDS(dnssec.DSSetFromCDS(append(cdsOnly(cds), synthesizeCDS(d.Child, cds)...)))
	if len(newDS) == 0 {
		d.fail("no usable CDS records")
		return nil
	}
	if err := dnssec.VerifyChainLink(d.Child, newDS, obs.DNSKEY, obs.DNSKEYSigs, r.Now); err != nil {
		d.fail("zone would not validate with new DS: %v", err)
		return nil
	}
	d.DS = newDS
	d.Eligible = true
	if r.DryRun {
		return nil
	}
	return r.install(d)
}

// AcceptAfterDelay implements the "Accept after Delay" policy: the CDS
// must be observed unchanged across repeated observations separated by
// HoldDown. Observations are remembered in the policy, so callers
// re-Evaluate periodically, as a registry cron job would.
type AcceptAfterDelay struct {
	Registry *Registry
	// HoldDown is the required stability window.
	HoldDown time.Duration
	// Clock returns the current time (defaults to Registry.Now-based
	// wall clock; injectable for tests).
	Clock func() time.Time

	first map[string]delayState
}

type delayState struct {
	seen time.Time
	keys map[string]bool
}

// Name implements Policy.
func (p *AcceptAfterDelay) Name() string { return "accept-after-delay" }

// Evaluate implements Policy.
func (p *AcceptAfterDelay) Evaluate(ctx context.Context, child string) (*Decision, error) {
	d := &Decision{Child: child}
	obs, cds := observeCDS(ctx, p.Registry, child, d)
	if len(d.Reasons) > 0 {
		return d, nil
	}
	now := p.now()
	keys := rdataKeys(cds)
	if p.first == nil {
		p.first = make(map[string]delayState)
	}
	prev, seen := p.first[child]
	switch {
	case !seen:
		p.first[child] = delayState{seen: now, keys: keys}
		d.fail("first observation; hold-down of %v starts now", p.HoldDown)
		return d, nil
	case !sameKeys(prev.keys, keys):
		p.first[child] = delayState{seen: now, keys: keys}
		d.fail("CDS changed; hold-down restarted")
		return d, nil
	case now.Sub(prev.seen) < p.HoldDown:
		d.fail("hold-down not elapsed (%v of %v)", now.Sub(prev.seen), p.HoldDown)
		return d, nil
	}
	return d, validateAndInstall(p.Registry, obs, cds, d)
}

func (p *AcceptAfterDelay) now() time.Time {
	if p.Clock != nil {
		return p.Clock()
	}
	return p.Registry.Now
}

func sameKeys(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// AcceptWithChallenge implements the "Accept with Challenge" policy:
// the registrar hands the customer a token which must appear as a TXT
// record at _delegate.<child> before the CDS is accepted.
type AcceptWithChallenge struct {
	Registry *Registry
	// Token is the expected challenge value.
	Token string
}

// Name implements Policy.
func (p *AcceptWithChallenge) Name() string { return "accept-with-challenge" }

// ChallengeName returns where the token must be published.
func ChallengeName(child string) string {
	return dnswire.Join("_delegate", child)
}

// Evaluate implements Policy.
func (p *AcceptWithChallenge) Evaluate(ctx context.Context, child string) (*Decision, error) {
	d := &Decision{Child: child}
	obs, cds := observeCDS(ctx, p.Registry, child, d)
	if len(d.Reasons) > 0 {
		return d, nil
	}
	answer, _, err := p.Registry.Scanner.Validator().R.Lookup(ctx, ChallengeName(child), dnswire.TypeTXT)
	found := false
	if err == nil {
		for _, rr := range answer {
			if txt, ok := rr.Data.(*dnswire.TXT); ok {
				for _, s := range txt.Strings {
					if s == p.Token {
						found = true
					}
				}
			}
		}
	}
	if !found {
		d.fail("challenge token not found at %s", ChallengeName(child))
		return d, nil
	}
	return d, validateAndInstall(p.Registry, obs, cds, d)
}

// AcceptFromInception implements the "Accept from Inception" policy:
// the CDS is honoured only within InceptionWindow of the delegation's
// registration time (supplied by the registry's database).
type AcceptFromInception struct {
	Registry *Registry
	// RegisteredAt looks up when the child was created.
	RegisteredAt func(child string) (time.Time, bool)
	// InceptionWindow is how long after registration the CDS is
	// trusted.
	InceptionWindow time.Duration
}

// Name implements Policy.
func (p *AcceptFromInception) Name() string { return "accept-from-inception" }

// Evaluate implements Policy.
func (p *AcceptFromInception) Evaluate(ctx context.Context, child string) (*Decision, error) {
	d := &Decision{Child: child}
	reg, ok := p.RegisteredAt(child)
	if !ok {
		d.fail("registration time unknown")
		return d, nil
	}
	if age := p.Registry.Now.Sub(reg); age > p.InceptionWindow {
		d.fail("registered %v ago, outside the inception window of %v", age, p.InceptionWindow)
		return d, nil
	}
	obs, cds := observeCDS(ctx, p.Registry, child, d)
	if len(d.Reasons) > 0 {
		return d, nil
	}
	return d, validateAndInstall(p.Registry, obs, cds, d)
}

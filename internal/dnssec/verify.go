package dnssec

import (
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/elliptic"
	"crypto/rsa"
	"fmt"
	"math/big"
	"time"

	"dnssecboot/internal/dnswire"
)

// VerifySig verifies one RRSIG over an RRset with one DNSKEY. It checks
// the validity window against now, the key tag, signer name, algorithm
// and the cryptographic signature itself.
func VerifySig(rrset []dnswire.RR, sigRR dnswire.RR, keyRR dnswire.RR, now time.Time) error {
	sig, ok := sigRR.Data.(*dnswire.RRSIG)
	if !ok {
		return fmt.Errorf("dnssec: not an RRSIG: %s", sigRR.Type())
	}
	key, ok := keyRR.Data.(*dnswire.DNSKEY)
	if !ok {
		if ck, isCK := keyRR.Data.(*dnswire.CDNSKEY); isCK {
			key = &ck.DNSKEY
		} else {
			return fmt.Errorf("dnssec: not a DNSKEY: %s", keyRR.Type())
		}
	}
	if len(rrset) == 0 {
		return fmt.Errorf("dnssec: empty RRset")
	}
	if sig.TypeCovered != rrset[0].Type() {
		return fmt.Errorf("dnssec: RRSIG covers %s, RRset is %s", sig.TypeCovered, rrset[0].Type())
	}
	if !key.IsZoneKey() {
		return fmt.Errorf("dnssec: DNSKEY without ZONE flag")
	}
	if key.Protocol != 3 {
		return fmt.Errorf("dnssec: DNSKEY protocol %d", key.Protocol)
	}
	if key.Algorithm != sig.Algorithm {
		return fmt.Errorf("dnssec: algorithm mismatch key=%d sig=%d", key.Algorithm, sig.Algorithm)
	}
	if KeyTag(key) != sig.KeyTag {
		return fmt.Errorf("%w: tag %d != %d", ErrNoMatchingKey, KeyTag(key), sig.KeyTag)
	}
	if keyRR.Name != sig.SignerName {
		return fmt.Errorf("dnssec: signer %s is not key owner %s", sig.SignerName, keyRR.Name)
	}
	if !dnswire.IsSubdomain(rrset[0].Name, sig.SignerName) {
		return fmt.Errorf("dnssec: RRset %s outside signer zone %s", rrset[0].Name, sig.SignerName)
	}
	ts := uint32(now.Unix())
	// Serial-number arithmetic (RFC 4034 §3.1.5) is overkill here; the
	// simulator's clocks stay well inside one epoch wraparound.
	if ts > sig.Expiration {
		return fmt.Errorf("%w: expired %d, now %d", ErrSignatureExpired, sig.Expiration, ts)
	}
	if ts < sig.Inception {
		return fmt.Errorf("%w: inception %d, now %d", ErrSignatureNotYetValid, sig.Inception, ts)
	}
	data, err := signedData(sig, rrset)
	if err != nil {
		return err
	}
	return verifyBytes(key, data, sig.Signature)
}

func verifyBytes(key *dnswire.DNSKEY, data, signature []byte) error {
	newHash, ch, err := algHash(key.Algorithm)
	if err != nil {
		return err
	}
	switch key.Algorithm {
	case dnswire.AlgEd25519:
		if len(key.PublicKey) != ed25519.PublicKeySize {
			return ErrBadPublicKey
		}
		if !ed25519.Verify(ed25519.PublicKey(key.PublicKey), data, signature) {
			return ErrBadSignature
		}
		return nil
	case dnswire.AlgECDSAP256SHA256, dnswire.AlgECDSAP384SHA384:
		curve := elliptic.P256()
		if key.Algorithm == dnswire.AlgECDSAP384SHA384 {
			curve = elliptic.P384()
		}
		size := ecdsaSigSize(key.Algorithm)
		pub, err := unpackECDSAPublicKey(key.PublicKey, curve, size)
		if err != nil {
			return err
		}
		if len(signature) != 2*size {
			return ErrBadSignature
		}
		r := new(big.Int).SetBytes(signature[:size])
		s := new(big.Int).SetBytes(signature[size:])
		h := newHash()
		h.Write(data)
		if !ecdsa.Verify(pub, h.Sum(nil), r, s) {
			return ErrBadSignature
		}
		return nil
	case dnswire.AlgRSASHA256, dnswire.AlgRSASHA512:
		pub, err := unpackRSAPublicKey(key.PublicKey)
		if err != nil {
			return err
		}
		h := newHash()
		h.Write(data)
		if err := rsa.VerifyPKCS1v15(pub, ch, h.Sum(nil), signature); err != nil {
			return ErrBadSignature
		}
		return nil
	default:
		return fmt.Errorf("%w: %d", ErrUnsupportedAlgorithm, key.Algorithm)
	}
}

// VerifyRRset verifies an RRset against a set of RRSIGs and candidate
// DNSKEYs: it succeeds if any (sig, key) pair validates. This mirrors
// validating-resolver behaviour (RFC 4035 §5.3.3).
func VerifyRRset(rrset []dnswire.RR, sigs []dnswire.RR, keys []dnswire.RR, now time.Time) error {
	if len(rrset) == 0 {
		return fmt.Errorf("dnssec: empty RRset")
	}
	if len(sigs) == 0 {
		return fmt.Errorf("dnssec: no RRSIG covering %s/%s", rrset[0].Name, rrset[0].Type())
	}
	var lastErr error
	for _, sigRR := range sigs {
		sig, ok := sigRR.Data.(*dnswire.RRSIG)
		if !ok || sig.TypeCovered != rrset[0].Type() {
			continue
		}
		for _, keyRR := range keys {
			if err := VerifySig(rrset, sigRR, keyRR, now); err == nil {
				return nil
			} else {
				lastErr = err
			}
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("dnssec: no usable RRSIG/DNSKEY pair for %s/%s", rrset[0].Name, rrset[0].Type())
	}
	return lastErr
}

// SigsCovering selects the RRSIG records in sigs that cover typ for the
// given owner name.
func SigsCovering(sigs []dnswire.RR, owner string, typ dnswire.Type) []dnswire.RR {
	var out []dnswire.RR
	for _, rr := range sigs {
		sig, ok := rr.Data.(*dnswire.RRSIG)
		if ok && sig.TypeCovered == typ && rr.Name == owner {
			out = append(out, rr)
		}
	}
	return out
}

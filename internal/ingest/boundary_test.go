package ingest

import (
	"bytes"
	"reflect"
	"testing"

	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/psl"
	"dnssecboot/internal/zone"
)

// TestBoundariesCanonicalise feeds mixed-case, non-fully-qualified text
// through the places a name enters the program and expects canonical
// names out: past these boundaries names are compared byte for byte and
// never normalised again (see dnswire.CanonicalName). NewQuery's row
// lives in dnswire's TestNewQuery.
func TestBoundariesCanonicalise(t *testing.T) {
	cases := []struct {
		boundary string
		names    func(t *testing.T) []string
		want     []string
	}{
		{
			boundary: "zone.Parse",
			names: func(t *testing.T) []string {
				z, err := zone.ParseString("@ 300 IN NS NS1.Example.NET.\nWWW 300 IN CNAME Mail\n", "Example.COM")
				if err != nil {
					t.Fatal(err)
				}
				out := []string{z.Origin}
				for _, rr := range z.All() {
					out = append(out, rr.Name, rr.Data.String())
				}
				return out
			},
			want: []string{"example.com.", "example.com.", "ns1.example.net.", "www.example.com.", "mail.example.com."},
		},
		{
			boundary: "zone.New",
			names:    func(*testing.T) []string { return []string{zone.New("Example.COM").Origin} },
			want:     []string{"example.com."},
		},
		{
			boundary: "ingest $ORIGIN",
			names: func(t *testing.T) []string {
				res := ingestString(t, "$ORIGIN UK\nAlpha.CO 172800 IN NS NS1.Alpha.CO.UK.\nBeta 172800 IN NS ns1.beta.uk.\n", Config{})
				return append([]string{res.Stats.Origin}, res.Targets...)
			},
			want: []string{"uk.", "alpha.co.uk.", "beta.uk."},
		},
		{
			boundary: "ingest Config.Origin",
			names: func(t *testing.T) []string {
				res := ingestString(t, "Alpha.CO.UK. 172800 IN NS ns1.alpha.co.uk.\n", Config{Origin: "UK"})
				return append([]string{res.Stats.Origin}, res.Targets...)
			},
			want: []string{"uk.", "alpha.co.uk."},
		},
		{
			boundary: "psl rule load",
			names: func(t *testing.T) []string {
				l, err := psl.ParseString("CO.UK\n*.CK\n!WWW.CK\n")
				if err != nil {
					t.Fatal(err)
				}
				reg, _ := l.RegistrableDomain("a.example.co.uk.")
				exc, _ := l.RegistrableDomain("www.ck.")
				return []string{reg, l.PublicSuffix("foo.bar.ck."), exc}
			},
			want: []string{"example.co.uk.", "bar.ck.", "www.ck."},
		},
		{
			boundary: "RDATA constructors",
			names: func(*testing.T) []string {
				return []string{
					dnswire.NewNS("NS1.Example.NET").Target,
					dnswire.NewCNAME("Www.Example.COM").Target,
					dnswire.NewDNAME("Example.ORG").Target,
				}
			},
			want: []string{"ns1.example.net.", "www.example.com.", "example.org."},
		},
		{
			boundary: "wire round trip",
			names: func(t *testing.T) []string {
				m := &dnswire.Message{
					ID:       1,
					Question: []dnswire.Question{{Name: "WWW.Example.COM", Type: dnswire.TypeMX, Class: dnswire.ClassIN}},
					Answer: []dnswire.RR{{Name: "Www.Example.COM.", Class: dnswire.ClassIN, TTL: 60,
						Data: &dnswire.MX{Preference: 10, Host: "Mail.Example.COM"}}},
				}
				packed, err := m.Pack()
				if err != nil {
					t.Fatal(err)
				}
				// Upper-case the question's labels on the wire so the
				// unpack side is exercised on its own.
				raw := bytes.Replace(packed, []byte("\x03www\x07example\x03com\x00"), []byte("\x03WwW\x07EXAMPLE\x03Com\x00"), 1)
				var out []string
				for _, wire := range [][]byte{packed, raw} {
					got, err := dnswire.Unpack(wire)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, got.Question[0].Name, got.Answer[0].Name, got.Answer[0].Data.(*dnswire.MX).Host)
				}
				if bytes.Equal(packed, raw) {
					t.Fatal("question labels not found on the wire")
				}
				return out
			},
			want: []string{
				"www.example.com.", "www.example.com.", "mail.example.com.",
				"www.example.com.", "www.example.com.", "mail.example.com.",
			},
		},
	}
	for _, c := range cases {
		t.Run(c.boundary, func(t *testing.T) {
			if got := c.names(t); !reflect.DeepEqual(got, c.want) {
				t.Errorf("got %q, want %q", got, c.want)
			}
		})
	}
}

package main

import (
	"math"
	"strings"
	"testing"
)

func TestValidateNumericFlags(t *testing.T) {
	cases := []struct {
		name        string
		loss        float64
		retries     int
		rate        float64
		concurrency int
		flag        string // "" = accepted; otherwise the flag the error must name
	}{
		{"defaults", 0, 1, 0, 8, ""},
		{"paper settings", 0.02, 8, 50, 16, ""},
		{"total loss", 1, 1, 0, 1, ""},
		{"negative loss", -0.1, 8, 0, 8, "-loss"},
		{"loss above one", 1.5, 8, 0, 8, "-loss"},
		{"NaN loss", math.NaN(), 8, 0, 8, "-loss"},
		{"zero retries", 0, 0, 0, 8, "-retries"},
		{"negative retries", 0, -3, 0, 8, "-retries"},
		{"negative rate", 0, 1, -5, 8, "-rate"},
		{"NaN rate", 0, 1, math.NaN(), 8, "-rate"},
		{"zero concurrency", 0, 1, 0, 0, "-concurrency"},
		{"negative concurrency", 0, 1, 0, -2, "-concurrency"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validate(tc.loss, tc.retries, tc.rate, tc.concurrency)
			if tc.flag == "" {
				if err != nil {
					t.Fatalf("validate refused valid flags: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validate accepted invalid %s", tc.flag)
			}
			if !strings.HasPrefix(err.Error(), tc.flag+" ") {
				t.Errorf("error %q does not name %s", err, tc.flag)
			}
		})
	}
}

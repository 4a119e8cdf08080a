package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestValidateNumericFlags(t *testing.T) {
	cases := []struct {
		name                string
		concurrency         int
		zipfS               float64
		tcpFrac, doFrac, nx float64
		duration, timeout   time.Duration
		flag                string // "" = accepted; otherwise the flag the error must name
	}{
		{"defaults", 8, 1.3, 0.1, 0.2, 0.05, 3 * time.Second, 2 * time.Second, ""},
		{"fraction bounds", 1, 2, 0, 1, 1, time.Millisecond, time.Millisecond, ""},
		{"zero concurrency", 0, 1.3, 0.1, 0.2, 0.05, time.Second, time.Second, "-concurrency"},
		{"negative concurrency", -1, 1.3, 0.1, 0.2, 0.05, time.Second, time.Second, "-concurrency"},
		{"flat zipf", 8, 1, 0.1, 0.2, 0.05, time.Second, time.Second, "-zipf-s"},
		{"NaN zipf", 8, math.NaN(), 0.1, 0.2, 0.05, time.Second, time.Second, "-zipf-s"},
		{"tcp above one", 8, 1.3, 7, 0.2, 0.05, time.Second, time.Second, "-tcp-frac"},
		{"negative tcp", 8, 1.3, -0.1, 0.2, 0.05, time.Second, time.Second, "-tcp-frac"},
		{"do above one", 8, 1.3, 0.1, 1.5, 0.05, time.Second, time.Second, "-do-frac"},
		{"NaN do", 8, 1.3, 0.1, math.NaN(), 0.05, time.Second, time.Second, "-do-frac"},
		{"negative nx", 8, 1.3, 0.1, 0.2, -1, time.Second, time.Second, "-nx-frac"},
		{"zero duration", 8, 1.3, 0.1, 0.2, 0.05, 0, time.Second, "-duration"},
		{"negative timeout", 8, 1.3, 0.1, 0.2, 0.05, time.Second, -time.Second, "-timeout"},
		{"zero timeout", 8, 1.3, 0.1, 0.2, 0.05, time.Second, 0, "-timeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validate(tc.concurrency, tc.zipfS, tc.tcpFrac, tc.doFrac, tc.nx, tc.duration, tc.timeout)
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

package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadFlagsRefusedBeforeWorkersStart builds scanctl with a real
// dnssec-scan worker beside it and passes flags no worker accepts. Each
// must be refused with exit 2 and a message naming the flag before any
// shard is launched: the run directory stays free of shard logs.
func TestBadFlagsRefusedBeforeWorkersStart(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not found")
	}
	bin := t.TempDir()
	for _, pkg := range []string{".", "../dnssec-scan"} {
		name := filepath.Base(pkg)
		if pkg == "." {
			name = "scanctl"
		}
		if out, err := exec.Command(goTool, "build", "-o", filepath.Join(bin, name), pkg).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
	}
	cases := []struct {
		args []string
		flag string
	}{
		{[]string{"-loss", "2"}, "-loss"},
		{[]string{"-retries", "0"}, "-retries"},
		{[]string{"-rate", "-1"}, "-rate"},
		{[]string{"-concurrency", "-1"}, "-concurrency"},
		{[]string{"-max-restarts", "-1"}, "-max-restarts"},
		{[]string{"-checkpoint-every", "0"}, "-checkpoint-every"},
	}
	for _, tc := range cases {
		t.Run(tc.flag, func(t *testing.T) {
			runDir := t.TempDir()
			args := append([]string{"-shards", "2", "-scale", "500000", "-restart-backoff", "1ms", "-run-dir", runDir, "-out", "none"}, tc.args...)
			cmd := exec.Command(filepath.Join(bin, "scanctl"), args...)
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("scanctl %v: err %v, want exit 2\n%s", tc.args, err, out)
			}
			if !strings.Contains(string(out), tc.flag+" ") {
				t.Errorf("message does not name %s:\n%s", tc.flag, out)
			}
			logs, _ := filepath.Glob(filepath.Join(runDir, "*.log"))
			if len(logs) != 0 {
				t.Errorf("workers were launched: %v", logs)
			}
			if entries, _ := os.ReadDir(runDir); len(entries) != 0 {
				t.Errorf("run directory not empty: %d entries", len(entries))
			}
		})
	}
}

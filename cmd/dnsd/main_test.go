package main

import (
	"bytes"
	"context"
	"errors"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dnssecboot/internal/dnswire"
	"dnssecboot/internal/transport"
)

const testZone = "testdata/example.com.db"

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

// dnsdBinary builds this command once per test run and returns its path.
func dnsdBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		goTool, err := exec.LookPath("go")
		if err != nil {
			buildErr = err
			return
		}
		dir, err := os.MkdirTemp("", "dnsd-test-bin")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "dnsd")
		if out, err := exec.Command(goTool, "build", "-o", binPath, ".").CombinedOutput(); err != nil {
			buildErr = errors.New(string(out))
		}
	})
	if buildErr != nil {
		t.Fatalf("building dnsd: %v", buildErr)
	}
	return binPath
}

func TestMain(m *testing.M) {
	code := m.Run()
	if binPath != "" {
		os.RemoveAll(filepath.Dir(binPath))
	}
	os.Exit(code)
}

// daemon is one dnsd child process on an ephemeral port.
type daemon struct {
	cmd  *exec.Cmd
	log  bytes.Buffer
	addr string
}

// startDaemon launches dnsd with extra flags and returns as soon as the
// bound address is published — the moment a supervisor would start
// talking to (or signalling) it.
func startDaemon(t *testing.T, extra ...string) *daemon {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	args := append([]string{"-listen", "127.0.0.1:0", "-addr-file", addrFile}, extra...)
	d := &daemon{cmd: exec.Command(dnsdBinary(t), append(args, testZone)...)}
	d.cmd.Stderr = &d.log
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			d.addr = string(b)
			return d
		}
		if time.Now().After(deadline) {
			_ = d.cmd.Process.Kill()
			_ = d.cmd.Wait()
			t.Fatalf("dnsd never published its address\n%s", d.log.String())
		}
		// Spin rather than sleep: the window this exists to probe — address
		// published, handler not yet installed — lasts microseconds.
		runtime.Gosched()
	}
}

// stop sends SIGTERM and requires a clean drain: exit 0 and the
// "drained cleanly" log line.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("dnsd exit after SIGTERM: %v\n%s", err, d.log.String())
	}
	if !strings.Contains(d.log.String(), "drained cleanly") {
		t.Fatalf("dnsd log lacks \"drained cleanly\":\n%s", d.log.String())
	}
}

// TestSIGTERMRightAfterStartDrains signals the daemon the moment its
// address file appears. The shutdown handler must already be installed
// by then, or the signal kills the process instead of draining it.
func TestSIGTERMRightAfterStartDrains(t *testing.T) {
	for i := 0; i < 30; i++ {
		startDaemon(t).stop(t)
	}
}

// TestLegacyFlagAnswersFORMERR boots the quirk-modelling configuration
// (no response cache, -legacy) and checks the pre-RFC 3597 behaviour:
// FORMERR for CDS while classic types still resolve.
func TestLegacyFlagAnswersFORMERR(t *testing.T) {
	d := startDaemon(t, "-cache-entries", "0", "-legacy")
	defer d.stop(t)
	server, err := netip.ParseAddrPort(d.addr)
	if err != nil {
		t.Fatal(err)
	}
	client := &transport.Client{Timeout: 2 * time.Second, Retries: 2}
	ctx := context.Background()
	for _, tc := range []struct {
		qtype dnswire.Type
		want  dnswire.Rcode
	}{
		{dnswire.TypeCDS, dnswire.RcodeFormErr},
		{dnswire.TypeSOA, dnswire.RcodeNoError},
	} {
		resp, err := client.Exchange(ctx, server, dnswire.NewQuery(0, "example.com.", tc.qtype))
		if err != nil {
			t.Fatalf("%s query: %v", tc.qtype, err)
		}
		if resp.Rcode != tc.want {
			t.Errorf("%s rcode = %s, want %s", tc.qtype, resp.Rcode, tc.want)
		}
	}
}

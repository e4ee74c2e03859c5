package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestSIGTERMAtStartupDrains signals the daemon the moment its -addr-file
// appears — the earliest point a script knows it is up — and expects a
// clean drain: exit status 0 and the drained line, not death by signal.
func TestSIGTERMAtStartupDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tcastd binary; skipped with -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "tcastd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build failed: %v\n%s", err, out)
	}
	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	deadline := time.After(30 * time.Second)
	for {
		if _, err := os.Stat(addrFile); err == nil {
			break
		} else if !errors.Is(err, os.ErrNotExist) {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			t.Fatalf("tcastd exited before writing -addr-file: %v\nstdout:\n%s\nstderr:\n%s", err, &stdout, &stderr)
		case <-deadline:
			_ = cmd.Process.Kill()
			t.Fatal("tcastd never wrote -addr-file")
		case <-time.After(time.Millisecond):
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("tcastd did not exit cleanly after SIGTERM: %v\nstdout:\n%s\nstderr:\n%s", err, &stdout, &stderr)
		}
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("tcastd did not drain within 30s of SIGTERM")
	}
	if !strings.Contains(stdout.String(), "tcastd: drained") {
		t.Fatalf("stdout lacks the drained line:\n%s", &stdout)
	}
}

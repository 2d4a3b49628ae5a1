package profiling

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
)

// TestStartWritesBothProfiles runs Start with both paths set and checks
// that stop leaves two non-empty gzip'd pprof files.
func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 2 || !bytes.Equal(data[:2], []byte{0x1f, 0x8b}) {
			t.Errorf("%s: %d bytes, not a gzip'd profile", filepath.Base(path), len(data))
		}
	}
}

// TestStartUncreatableMemPath checks that a heap-profile path that
// cannot be created fails Start and stops the CPU profile it had
// already started, so the process can start another.
func TestStartUncreatableMemPath(t *testing.T) {
	dir := t.TempDir()
	stop, err := Start(filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "no-such-dir", "mem.prof"))
	if err == nil {
		stop()
		t.Fatal("Start succeeded with an uncreatable heap-profile path")
	}
	if stop != nil {
		t.Error("Start returned a stop function with its error")
	}
	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Fatalf("the failed Start left its CPU profile running: %v", err)
	}
	pprof.StopCPUProfile()
}

// TestStartEmptyPathsIsNoop checks that with both paths empty Start
// profiles nothing and stop does nothing.
func TestStartEmptyPathsIsNoop(t *testing.T) {
	stop, err := Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Fatalf("Start with empty paths started a CPU profile: %v", err)
	}
	if err := stop(); err != nil { // must not stop the profile this test started
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(io.Discard); err == nil {
		t.Fatal("stop with empty paths stopped a CPU profile it did not start")
	}
	pprof.StopCPUProfile()
}

// TestStopReportsLostProfiles writes both profiles to /dev/full, where
// every write fails, and checks that stop reports both losses.
func TestStopReportsLostProfiles(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	stop, err := Start("/dev/full", "/dev/full")
	if err != nil {
		t.Fatal(err)
	}
	err = stop()
	if err == nil {
		t.Fatal("stop returned nil after both profiles failed to write")
	}
	for _, want := range []string{"write cpu profile", "write heap profile"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("stop error %q does not name %q", err, want)
		}
	}
}

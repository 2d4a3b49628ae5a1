package obslog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLineFormat(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, Options{Level: LevelDebug}).Module("serve")
	l.Info().
		Str("rid", "ab-1").
		Str("path", "/v1/load").
		Int("status", 200).
		Int64("big", -9_000_000_000).
		Uint64("count", 7).
		Float("ratio", 0.25).
		Bool("ok", true).
		Dur("queue_wait_ms", 1500*time.Microsecond).
		Err(errors.New("boom boom")).
		Msg("request done")
	line := buf.String()
	if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
		t.Fatalf("want exactly one newline-terminated line, got %q", line)
	}
	for _, want := range []string{
		" level=info", " module=serve", " rid=ab-1", " path=/v1/load",
		" status=200", " big=-9000000000", " count=7", " ratio=0.25",
		" ok=true", " queue_wait_ms=1.500", ` err="boom boom"`, ` msg="request done"`,
	} {
		if !strings.Contains(line, want) {
			t.Errorf("line missing %q: %s", want, line)
		}
	}
	if !regexp.MustCompile(`^ts=\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{3}Z `).MatchString(line) {
		t.Errorf("line does not start with an RFC3339-ms UTC timestamp: %s", line)
	}
}

func TestValueQuoting(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, Options{})
	l.Info().
		Str("plain", "abc-123").
		Str("spaced", "a b").
		Str("eq", "k=v").
		Str("quote", `say "hi"`).
		Str("empty", "").
		Str("ctl", "a\nb").
		Msg("m")
	line := buf.String()
	for _, want := range []string{
		` plain=abc-123`, ` spaced="a b"`, ` eq="k=v"`, ` quote="say \"hi\""`,
		` empty=""`, ` ctl="a\nb"`, ` msg=m`,
	} {
		if !strings.Contains(line, want) {
			t.Errorf("line missing %q: %s", want, line)
		}
	}
}

func TestLevelFiltering(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, Options{Level: LevelWarn})
	l.Debug().Str("k", "v").Msg("debug")
	l.Info().Msg("info")
	l.Warn().Msg("warn")
	l.Error().Msg("error")
	out := buf.String()
	if strings.Contains(out, "msg=debug") || strings.Contains(out, "msg=info") {
		t.Fatalf("below-threshold lines leaked: %s", out)
	}
	if !strings.Contains(out, "msg=warn") || !strings.Contains(out, "msg=error") {
		t.Fatalf("at/above-threshold lines missing: %s", out)
	}

}

func TestModuleLevels(t *testing.T) {
	var buf bytes.Buffer
	root := New(&buf, Options{Level: LevelWarn, ModuleLevels: map[string]Level{"serve": LevelDebug}})
	serve, access := root.Module("serve"), root.Module("access")

	serve.Debug().Msg("serve-debug")   // serve overridden to debug: kept
	access.Info().Msg("access-info")   // access falls back to warn: dropped
	access.Error().Msg("access-error") // above warn: kept
	out := buf.String()
	if !strings.Contains(out, "msg=serve-debug") {
		t.Errorf("module override ignored: %s", out)
	}
	if strings.Contains(out, "msg=access-info") {
		t.Errorf("default level not applied to unlisted module: %s", out)
	}
	if !strings.Contains(out, "msg=access-error") {
		t.Errorf("error line dropped: %s", out)
	}

	off := New(&buf, Options{Level: LevelDebug, ModuleLevels: map[string]Level{"access": LevelOff}})
	buf.Reset()
	off.Module("access").Error().Msg("gone")
	if buf.Len() != 0 {
		t.Errorf("module=off still wrote: %q", buf.String())
	}
}

func TestParseLevelSpec(t *testing.T) {
	def, mods, err := ParseLevelSpec("warn, serve=debug ,access=off")
	if err != nil {
		t.Fatal(err)
	}
	if def != LevelWarn {
		t.Errorf("default = %v, want warn", def)
	}
	if mods["serve"] != LevelDebug || mods["access"] != LevelOff {
		t.Errorf("module map = %v", mods)
	}
	if def, mods, err := ParseLevelSpec(""); err != nil || def != LevelInfo || mods != nil {
		t.Errorf("empty spec = (%v, %v, %v), want (info, nil, nil)", def, mods, err)
	}
	for _, bad := range []string{"nope", "serve=nope", "=debug"} {
		if _, _, err := ParseLevelSpec(bad); err == nil {
			t.Errorf("ParseLevelSpec(%q) accepted", bad)
		}
	}
}

func TestParseLevelRoundTrip(t *testing.T) {
	for lv := LevelDebug; lv <= LevelOff; lv++ {
		got, err := ParseLevel(strings.ToUpper(lv.String()))
		if err != nil || got != lv {
			t.Errorf("ParseLevel(%q) = %v, %v", lv.String(), got, err)
		}
	}
}

func TestNilLoggerAndDiscard(t *testing.T) {
	var l *Logger
	// Every method on a nil logger and its nil events must be a no-op.
	if l.Enabled(LevelError) {
		t.Error("nil logger reports enabled")
	}
	l.Module("x").Error().Str("k", "v").Int("n", 1).Err(errors.New("e")).Msg("dropped")
}

// TestConcurrentWriters hammers one sink from many goroutines under
// -race: every line must come out whole (no interleaving).
func TestConcurrentWriters(t *testing.T) {
	var buf bytes.Buffer
	root := New(&buf, Options{Level: LevelDebug})
	const workers, lines = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l := root.Module(fmt.Sprintf("m%d", w))
			for i := 0; i < lines; i++ {
				l.Info().Int("worker", w).Int("i", i).Str("pad", "xxxxxxxxxxxxxxxx").Msg("tick")
			}
		}(w)
	}
	wg.Wait()
	got := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(got) != workers*lines {
		t.Fatalf("got %d lines, want %d", len(got), workers*lines)
	}
	for _, line := range got {
		if !strings.HasPrefix(line, "ts=") || !strings.HasSuffix(line, "msg=tick") {
			t.Fatalf("torn line: %q", line)
		}
	}
}

func TestRotationBoundary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dora.log")
	sink, err := OpenFile(path, 256, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	line := strings.Repeat("x", 99) + "\n" // 100 bytes
	for i := 0; i < 7; i++ {
		if _, err := sink.Write([]byte(line)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	// 7 x 100 B against a 256 B cap: writes 1-2 fit (200), write 3 would
	// reach 300 -> rotate, and so on. Every file must hold whole lines
	// and stay <= 256 B; backups must stop at .2.
	sizes := map[string]int{path: 0, path + ".1": 0, path + ".2": 0}
	total := 0
	for p := range sizes {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("expected rotated file %s: %v", p, err)
		}
		if len(data) > 256 {
			t.Errorf("%s is %d bytes, exceeds the 256-byte cap", p, len(data))
		}
		if len(data)%100 != 0 {
			t.Errorf("%s holds a torn line (%d bytes)", p, len(data))
		}
		total += len(data)
	}
	if _, err := os.Stat(path + ".3"); !os.IsNotExist(err) {
		t.Errorf("backup beyond maxBackups exists: path.3 (err=%v)", err)
	}
	// With 2 backups kept, at most one rotation's worth may be deleted.
	if total < 500 {
		t.Errorf("only %d bytes survive across rotations, want >= 500", total)
	}
}

func TestRotationCrossesProcessRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dora.log")
	write := func(n int) {
		sink, err := OpenFile(path, 256, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := sink.Write([]byte(strings.Repeat("y", 99) + "\n")); err != nil {
				t.Fatal(err)
			}
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
	}
	write(2) // 200 bytes
	write(1) // reopen must see size 200 and rotate before exceeding 256
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 100 {
		t.Fatalf("current file is %d bytes after restart rotation, want 100", len(data))
	}
	if _, err := os.Stat(path + ".1"); err != nil {
		t.Fatalf("restart rotation kept no backup: %v", err)
	}
}

func TestRotationZeroBackupsTruncates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dora.log")
	sink, err := OpenFile(path, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	for i := 0; i < 4; i++ {
		if _, err := sink.Write([]byte(strings.Repeat("z", 63) + "\n")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(path + ".1"); !os.IsNotExist(err) {
		t.Errorf("maxBackups=0 still created a backup (err=%v)", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 128 || len(data)%64 != 0 {
		t.Errorf("truncating rotation left %d bytes", len(data))
	}
}

// TestObslogDisabledAllocs is the runtime twin of
// BenchmarkObslogDisabled: a fully chained event below the level
// threshold must not allocate at all. Mirrors TestQuantumLoopAllocs'
// race gating — the race runtime allocates on its own.
func TestObslogDisabledAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	l := New(os.Stderr, Options{Level: LevelOff}).Module("serve")
	allocs := testing.AllocsPerRun(1000, func() {
		l.Debug().
			Str("rid", "ab-1").
			Str("path", "/v1/load").
			Int("status", 200).
			Dur("latency_ms", time.Millisecond).
			Msg("request")
	})
	if allocs != 0 {
		t.Fatalf("disabled log path allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkObslogDisabled is the disabled-path cost guard, the obslog
// twin of BenchmarkTelemetryDisabled: run with -benchmem, allocs/op
// must be 0.
func BenchmarkObslogDisabled(b *testing.B) {
	l := New(os.Stderr, Options{Level: LevelOff}).Module("serve")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Debug().
			Str("rid", "ab-1").
			Str("path", "/v1/load").
			Int("status", 200).
			Dur("latency_ms", time.Millisecond).
			Msg("request")
	}
}

// BenchmarkObslogEnabled quantifies the enabled-path cost against a
// discarding writer (buffer reuse should hold steady-state allocs
// near zero, but the assertion lives only on the disabled path).
func BenchmarkObslogEnabled(b *testing.B) {
	l := New(devNull{}, Options{Level: LevelDebug}).Module("serve")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Info().
			Str("rid", "ab-1").
			Str("path", "/v1/load").
			Int("status", 200).
			Dur("latency_ms", time.Millisecond).
			Msg("request")
	}
}

type devNull struct{}

func (devNull) Write(p []byte) (int, error) { return len(p), nil }

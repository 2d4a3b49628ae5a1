// Package obslog is the repository's structured operational logger:
// leveled key=value lines for the serving path and the CLIs, in the
// spirit of aistore's cmn/nlog but reduced to what this module needs.
//
//	ts=2026-08-08T10:11:12.130Z level=info module=serve rid=ab12f0-7 msg="request" status=200
//
// Three properties drive the design:
//
//   - Disabled means free. A filtered-out call must not allocate or
//     format: level constructors return a nil *Event, every Event
//     method is a nil-receiver no-op (the same idiom as a nil
//     telemetry.Counter), and fields are typed — no interface boxing,
//     no variadic slice. BenchmarkObslogDisabled holds the whole
//     chain to 0 allocs/op.
//   - Module-level severity. One process-wide sink, many module
//     handles (Logger.Module), each resolvable to its own level via
//     a spec like "info,serve=debug" (ParseLevelSpec), fixed when the
//     logger is built.
//   - Bounded disk. The file sink rotates by size (FileSink), keeping
//     a fixed number of numbered backups, so a misbehaving daemon
//     cannot fill the disk.
//
// obslog reads the wall clock for timestamps and is therefore banned
// (by the doralint determinism rule) from every package that feeds
// the campaign fingerprint; serving and command packages only.
package obslog

import (
	"fmt"
	"io"
	"maps"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Level is a line's severity. Higher is more severe; a logger emits
// lines at or above its configured level. Off disables everything.
type Level int32

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
	LevelOff
)

var levelNames = [...]string{"debug", "info", "warn", "error", "off"}

// String returns the lowercase level name.
func (l Level) String() string {
	if l < LevelDebug || l > LevelOff {
		return "level(" + strconv.Itoa(int(l)) + ")"
	}
	return levelNames[l]
}

// ParseLevel parses a level name (case-insensitive).
func ParseLevel(s string) (Level, error) {
	for i, name := range levelNames {
		if strings.EqualFold(s, name) {
			return Level(i), nil
		}
	}
	return LevelOff, fmt.Errorf("obslog: unknown level %q (debug|info|warn|error|off)", s)
}

// ParseLevelSpec parses a severity spec: a comma-separated list of
// "level" (the default) and "module=level" overrides, e.g.
// "info,serve=debug,access=off". An empty spec means Info.
func ParseLevelSpec(spec string) (Level, map[string]Level, error) {
	def := LevelInfo
	var mods map[string]Level
	if strings.TrimSpace(spec) == "" {
		return def, nil, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if mod, lv, ok := strings.Cut(part, "="); ok {
			parsed, err := ParseLevel(lv)
			if err != nil {
				return 0, nil, fmt.Errorf("obslog: module filter %q: %w", part, err)
			}
			mod = strings.TrimSpace(mod)
			if mod == "" {
				return 0, nil, fmt.Errorf("obslog: module filter %q names no module", part)
			}
			if mods == nil {
				mods = make(map[string]Level)
			}
			mods[strings.TrimSpace(mod)] = parsed
			continue
		}
		parsed, err := ParseLevel(part)
		if err != nil {
			return 0, nil, err
		}
		def = parsed
	}
	return def, mods, nil
}

// core is the shared state behind every Logger handle derived from one
// New call: the sink, the default level, and the per-module overrides.
type core struct {
	mu    sync.Mutex // serializes writes: one line per Write call
	w     io.Writer
	level Level            // default threshold; fixed by New
	mods  map[string]Level // per-module overrides; fixed by New
}

// Logger is a module-scoped handle on a shared log sink. A nil
// *Logger is valid and discards everything, so optional logging
// dependencies need no nil checks at call sites.
type Logger struct {
	c      *core
	module string
}

// Options configures New.
type Options struct {
	// Level is the default severity threshold (LevelDebug == 0 keeps
	// everything, which is also the zero-value behavior; use LevelOff
	// to discard).
	Level Level
	// ModuleLevels overrides the threshold per module name.
	ModuleLevels map[string]Level
}

// New returns a Logger writing key=value lines to w. Derive
// per-module handles with Module.
func New(w io.Writer, opts Options) *Logger {
	c := &core{w: w, level: opts.Level, mods: maps.Clone(opts.ModuleLevels)}
	return &Logger{c: c}
}

// Module returns a handle emitting lines tagged module=name and
// filtered by that module's level (falling back to the default).
func (l *Logger) Module(name string) *Logger {
	if l == nil {
		return nil
	}
	return &Logger{c: l.c, module: name}
}

// Enabled reports whether a line at lv would be emitted by this
// handle. The check is one lookup in the module overrides.
func (l *Logger) Enabled(lv Level) bool {
	if l == nil {
		return false
	}
	if v, ok := l.c.mods[l.module]; ok {
		return lv >= v
	}
	return lv >= l.c.level
}

// Event is one in-flight log line being assembled. A nil *Event (from
// a filtered-out level constructor) ignores every call, so the
// disabled path costs one map lookup and nothing else.
type Event struct {
	buf []byte
	c   *core
}

// eventPool recycles line buffers so the enabled path settles at zero
// steady-state allocations too.
var eventPool = sync.Pool{New: func() any { return &Event{buf: make([]byte, 0, 256)} }}

// event starts a line: timestamp, level, module.
func (l *Logger) event(lv Level) *Event {
	if !l.Enabled(lv) {
		return nil
	}
	e := eventPool.Get().(*Event)
	e.c = l.c
	e.buf = append(e.buf, "ts="...)
	e.buf = time.Now().UTC().AppendFormat(e.buf, "2006-01-02T15:04:05.000Z")
	e.buf = append(e.buf, " level="...)
	e.buf = append(e.buf, lv.String()...)
	if l.module != "" {
		e.buf = append(e.buf, " module="...)
		e.buf = appendValue(e.buf, l.module)
	}
	return e
}

// Debug starts a debug-level line (nil when filtered).
func (l *Logger) Debug() *Event { return l.event(LevelDebug) }

// Info starts an info-level line (nil when filtered).
func (l *Logger) Info() *Event { return l.event(LevelInfo) }

// Warn starts a warn-level line (nil when filtered).
func (l *Logger) Warn() *Event { return l.event(LevelWarn) }

// Error starts an error-level line (nil when filtered).
func (l *Logger) Error() *Event { return l.event(LevelError) }

// appendValue appends v, quoting only when it contains characters
// that would break key=value tokenization (spaces, quotes, '=',
// control bytes) so the common case stays scan-free.
func appendValue(buf []byte, v string) []byte {
	if needsQuoting(v) {
		return strconv.AppendQuote(buf, v)
	}
	return append(buf, v...)
}

func needsQuoting(v string) bool {
	if v == "" {
		return true
	}
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c <= ' ' || c == '"' || c == '=' || c == 0x7f {
			return true
		}
	}
	return false
}

func (e *Event) key(k string) {
	e.buf = append(e.buf, ' ')
	e.buf = append(e.buf, k...)
	e.buf = append(e.buf, '=')
}

// Str adds a string field.
func (e *Event) Str(k, v string) *Event {
	if e == nil {
		return nil
	}
	e.key(k)
	e.buf = appendValue(e.buf, v)
	return e
}

// Int adds an int field.
func (e *Event) Int(k string, v int) *Event { return e.Int64(k, int64(v)) }

// Int64 adds an int64 field.
func (e *Event) Int64(k string, v int64) *Event {
	if e == nil {
		return nil
	}
	e.key(k)
	e.buf = strconv.AppendInt(e.buf, v, 10)
	return e
}

// Uint64 adds a uint64 field.
func (e *Event) Uint64(k string, v uint64) *Event {
	if e == nil {
		return nil
	}
	e.key(k)
	e.buf = strconv.AppendUint(e.buf, v, 10)
	return e
}

// Float adds a float64 field in shortest form.
func (e *Event) Float(k string, v float64) *Event {
	if e == nil {
		return nil
	}
	e.key(k)
	e.buf = strconv.AppendFloat(e.buf, v, 'g', -1, 64)
	return e
}

// Bool adds a bool field.
func (e *Event) Bool(k string, v bool) *Event {
	if e == nil {
		return nil
	}
	e.key(k)
	e.buf = strconv.AppendBool(e.buf, v)
	return e
}

// Dur adds a duration field rendered as integral milliseconds
// (key expected to carry a _ms suffix by convention).
func (e *Event) Dur(k string, d time.Duration) *Event {
	if e == nil {
		return nil
	}
	e.key(k)
	e.buf = strconv.AppendFloat(e.buf, float64(d)/float64(time.Millisecond), 'f', 3, 64)
	return e
}

// Err adds an error field (skipped when err is nil).
func (e *Event) Err(err error) *Event {
	if e == nil || err == nil {
		return e
	}
	return e.Str("err", err.Error())
}

// Msg terminates the line with msg="..." and writes it. Every event
// chain must end in Msg; an abandoned event leaks its buffer until GC
// but writes nothing.
func (e *Event) Msg(msg string) {
	if e == nil {
		return
	}
	e.key("msg")
	e.buf = appendValue(e.buf, msg)
	e.buf = append(e.buf, '\n')
	c := e.c
	c.mu.Lock()
	_, _ = c.w.Write(e.buf)
	c.mu.Unlock()
	e.c = nil
	if cap(e.buf) <= 1<<12 { // don't pin jumbo lines in the pool
		e.buf = e.buf[:0]
		eventPool.Put(e)
	}
}

package obslog

import (
	"flag"
	"io"
)

// Flags is the shared command-line surface every dora command wires
// with RegisterFlags: one severity spec, an optional rotated file
// destination, and the rotation geometry. Keeping it here means the
// five CLIs and the daemon agree on flag names and defaults.
type Flags struct {
	// Spec is the -log-level value: "level" plus optional
	// "module=level" overrides (see ParseLevelSpec).
	Spec string
	// File is the -log-file value; empty logs to stderr, unrotated.
	File string
	// MaxBytes / Backups are the -log-max-bytes / -log-backups
	// rotation geometry, used only with -log-file.
	MaxBytes int64
	Backups  int
}

// RegisterFlags declares the logging flags on fs (the command's flag
// set) and returns the destination they fill in at Parse time.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Spec, "log-level", "info",
		"log severity: LEVEL or LEVEL,module=LEVEL,... (debug|info|warn|error|off)")
	fs.StringVar(&f.File, "log-file", "",
		"write structured logs to this file (size-rotated); empty = stderr")
	fs.Int64Var(&f.MaxBytes, "log-max-bytes", DefaultMaxBytes,
		"rotate -log-file after it reaches this many bytes")
	fs.IntVar(&f.Backups, "log-backups", DefaultMaxBackups,
		"rotated -log-file backups to keep (0 = truncate on rotation)")
	return f
}

// Open builds the Logger the parsed flags describe, already scoped to
// module. Without -log-file it writes to stderr, the command's error
// stream. The returned closer is non-nil only for file sinks; callers
// defer Close() unconditionally via the wrapper.
func (f *Flags) Open(stderr io.Writer, module string) (*Logger, io.Closer, error) {
	def, mods, err := ParseLevelSpec(f.Spec)
	if err != nil {
		return nil, nopCloser{}, err
	}
	w := stderr
	var closer io.Closer = nopCloser{}
	if f.File != "" {
		sink, err := OpenFile(f.File, f.MaxBytes, f.Backups)
		if err != nil {
			return nil, nopCloser{}, err
		}
		w, closer = sink, sink
	}
	l := New(w, Options{Level: def, ModuleLevels: mods})
	return l.Module(module), closer, nil
}

type nopCloser struct{}

func (nopCloser) Close() error { return nil }

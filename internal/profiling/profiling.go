// Package profiling wires the standard pprof collectors into the
// command-line tools: a CPU profile covering the run and a heap
// profile captured at exit, for feeding `go tool pprof` when hunting
// simulator hot spots (see the "Simulator performance" section of
// DESIGN.md).
package profiling

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins the requested profiles. Either path may be empty to
// disable that profile. The returned stop function must run on normal
// exit (defer it right after flag parsing): it stops the CPU profile,
// writes the heap profile, closes both files and reports every write
// or close that failed, so a lost profile is never silent. Paths that
// cannot be created fail fast so a long simulation is not run only to
// lose its profile at the end.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuF *os.File
	var cpuW *errWriter
	if cpuPath != "" {
		cpuF, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		cpuW = &errWriter{w: cpuF}
		if err := pprof.StartCPUProfile(cpuW); err != nil {
			cpuF.Close()
			return nil, fmt.Errorf("profiling: start cpu profile: %w", err)
		}
	}
	var memF *os.File
	if memPath != "" {
		memF, err = os.Create(memPath)
		if err != nil {
			if cpuF != nil {
				pprof.StopCPUProfile()
				cpuF.Close()
			}
			return nil, fmt.Errorf("profiling: %w", err)
		}
	}
	return func() error {
		var errs []error
		note := func(what string, err error) {
			if err != nil {
				errs = append(errs, fmt.Errorf("profiling: %s: %w", what, err))
			}
		}
		if cpuF != nil {
			pprof.StopCPUProfile()
			note("write cpu profile", cpuW.err)
			note("close cpu profile", cpuF.Close())
		}
		if memF != nil {
			runtime.GC() // settle the heap so the profile shows live objects
			memW := &errWriter{w: memF}
			err := pprof.Lookup("heap").WriteTo(memW, 0)
			if err == nil {
				err = memW.err
			}
			note("write heap profile", err)
			note("close heap profile", memF.Close())
		}
		return errors.Join(errs...)
	}, nil
}

// errWriter keeps the first error its writes return: runtime/pprof
// drops the errors of the writer it is given.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	n, err := e.w.Write(p)
	if err != nil && e.err == nil {
		e.err = err
	}
	return n, err
}

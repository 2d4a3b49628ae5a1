// Package pool provides the bounded worker pool that fans out the
// reproduction's embarrassingly parallel simulation work: measurement
// campaign cells, idle power sweeps, and the independent page-load
// runs behind each evaluation exhibit.
//
// Determinism is the design constraint: tasks are identified by dense
// indices, workers pull the next index from a shared counter, and
// callers write each task's output into an index-addressed slot. The
// result layout therefore never depends on goroutine scheduling, and a
// run with N workers produces bit-identical output to a serial run —
// provided each task derives its own RNG stream from its identity
// rather than from execution order (see train.Campaign's per-cell
// seeding).
package pool

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// EnvWorkers is the environment variable that overrides the default
// fan-out width for every pool in the process (commands additionally
// expose a -workers flag that wins over the environment).
const EnvWorkers = "DORA_WORKERS"

// DefaultSize returns the default fan-out width: EnvWorkers when set
// to a positive integer, otherwise runtime.NumCPU. Malformed
// environment values silently fall back here (library call sites must
// never fail on a bad environment); commands validate the same inputs
// up front through ResolveWorkers so the user gets an error instead.
func DefaultSize() int {
	if n, err := ResolveWorkers(0); err == nil {
		return n
	}
	return runtime.NumCPU()
}

// ResolveWorkers validates a -workers flag value against the
// DORA_WORKERS environment override and returns the effective pool
// width. It is the shared front door for every command (dorasim,
// doratrain, dorarepro, doralint, dorad): a negative flag value, or an
// environment override that is non-numeric or <= 0, is a configuration
// error reported to the user rather than silently replaced by a
// default.
//
// Resolution order: flag > 0 wins; flag == 0 defers to DORA_WORKERS
// when set; otherwise one worker per CPU.
func ResolveWorkers(flagVal int) (int, error) {
	if flagVal < 0 {
		return 0, fmt.Errorf("invalid -workers %d: must be >= 1 (0 = one per CPU or $%s)", flagVal, EnvWorkers)
	}
	if flagVal > 0 {
		return flagVal, nil
	}
	if s := os.Getenv(EnvWorkers); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			return 0, fmt.Errorf("invalid $%s %q: must be a positive integer", EnvWorkers, s)
		}
		if n <= 0 {
			return 0, fmt.Errorf("invalid $%s %d: must be >= 1", EnvWorkers, n)
		}
		return n, nil
	}
	return runtime.NumCPU(), nil
}

// Run invokes fn(i) for every i in [0, n), using at most workers
// concurrent goroutines. workers <= 0 means DefaultSize(); workers == 1
// (or n <= 1) degenerates to a plain serial loop with no goroutines.
//
// On failure Run returns the error from the lowest-index failed task,
// so the reported error is reproducible across schedules. Once any
// task fails, idle workers stop picking up new work; in-flight tasks
// run to completion. Partial output for indices past a failure is
// unspecified, matching the serial loop's abort semantics.
func Run(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = DefaultSize()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup

		mu       sync.Mutex
		firstErr error
		errIdx   = n
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					failed.Store(true)
					mu.Lock()
					if i < errIdx {
						errIdx, firstErr = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

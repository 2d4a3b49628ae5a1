// Package locks is a locksafe fixture: blocking operations inside
// mutex critical sections — directly, via time.Sleep, and
// interprocedurally through a helper doing file I/O — next to the
// clean shapes: blocking work after Unlock, and nested lock
// acquisition (lock ordering is deliberately not this rule's job).
package locks

import (
	"os"
	"sync"
	"time"
)

type store struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	data map[string]int
	wake chan struct{}
}

// waitUnderLock blocks on a channel receive while mu is held (the
// deferred unlock holds it to the end of the function).
func (s *store) waitUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	<-s.wake // want `locksafe: a channel receive on channel "wake" while "mu" is held`
}

// sleepUnderLock sleeps inside an inline-unlock critical section.
func (s *store) sleepUnderLock() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want `locksafe: call to time.Sleep while "mu" is held`
	s.mu.Unlock()
}

// flushUnderRead does file I/O while the read lock is held, one call
// hop away — the finding is interprocedural.
func (s *store) flushUnderRead(path string) {
	s.rw.RLock()
	defer s.rw.RUnlock()
	s.persist(path) // want `locksafe: call to locks\.\(\*store\)\.persist, which can block \(os\.WriteFile\) while "rw" is held`
}

func (s *store) persist(path string) {
	_ = os.WriteFile(path, nil, 0o644)
}

// shortCritical is clean: the receive happens after Unlock.
func (s *store) shortCritical() {
	s.mu.Lock()
	s.data["k"] = 1
	s.mu.Unlock()
	<-s.wake
}

// nestedLock is clean: acquiring another mutex inside a critical
// section is not a blocking operation for this rule.
func (s *store) nestedLock() {
	s.rw.RLock()
	s.mu.Lock()
	s.data["k"]++
	s.mu.Unlock()
	s.rw.RUnlock()
}

// flight is a generic singleflight entry; wait blocks until it lands.
type flight[V any] struct {
	done chan struct{}
	val  V
}

func (f *flight[V]) wait() V {
	<-f.done
	return f.val
}

// waitGenericUnderLock reaches the blocking receive through a method
// of an instantiated generic type: the call edge must resolve to the
// generic declaration, not count as dynamic.
func (s *store) waitGenericUnderLock(f *flight[int]) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return f.wait() // want `locksafe: call to locks\.\(\*flight\[V\]\)\.wait, which can block \(a channel receive on channel "done"\) while "mu" is held`
}

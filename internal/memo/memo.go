// Package memo is the singleflight memo behind the experiment suite's
// run and kernel memos and dorad's simulation dedup. A leader runs
// detached and is cancelled only when its last waiter leaves, so one
// impatient caller neither aborts nor leaks work others still want; a
// live waiter on a leader aborted that way retries with a fresh one.
package memo

import (
	"context"
	"maps"
	"sync"
)

// maxRetries bounds how often one Do starts over after aborted leaders.
const maxRetries = 3

// Outcome says how a Do call was answered.
type Outcome uint8

const (
	Led    Outcome = iota // this call started the leader
	Joined                // this call waited on another call's leader
	Kept                  // a kept value answered at once
)

// Group deduplicates computations by key. Create one with New.
type Group[K comparable, V any] struct {
	base    context.Context
	keep    bool
	leaders sync.WaitGroup

	mu    sync.Mutex
	calls map[K]*call[V]
	kept  map[K]V
}

// call is one leader and the callers waiting on it.
type call[V any] struct {
	done    chan struct{} // closed once val, err and aborted are final
	val     V
	err     error
	aborted bool // failed after its context was cancelled

	waiters int // guarded by the group mutex
	cancel  context.CancelFunc
}

// New returns a group whose leaders run on contexts derived from base.
// With keep set, successful values are kept and answer later calls for
// their key; otherwise a key is computed afresh after its leader ends.
func New[K comparable, V any](base context.Context, keep bool) *Group[K, V] {
	return &Group[K, V]{base: base, keep: keep, calls: map[K]*call[V]{}, kept: map[K]V{}}
}

// Do returns the value for key, from a kept value, a running leader,
// or a new leader running fn. fn's context is cancelled once every
// waiter has left or base ends. When ctx ends first, Do returns
// ctx.Err() and leaves the leader to the other waiters.
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func(context.Context) (V, error)) (V, Outcome, error) {
	for attempt := 0; ; attempt++ {
		c, v, out := g.join(key, fn)
		if out == Kept {
			return v, out, nil
		}
		select {
		case <-c.done:
			g.leave(c)
			if c.aborted && ctx.Err() == nil && g.base.Err() == nil && attempt < maxRetries {
				continue
			}
			return c.val, out, c.err
		case <-ctx.Done():
			g.leave(c)
			return v, out, ctx.Err()
		}
	}
}

// join answers key from a kept value, or adds the caller to key's
// leader, starting one if none runs. Each call returned must be left.
func (g *Group[K, V]) join(key K, fn func(context.Context) (V, error)) (c *call[V], v V, out Outcome) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if v, ok := g.kept[key]; ok {
		return nil, v, Kept
	}
	if c = g.calls[key]; c != nil {
		c.waiters++
		return c, v, Joined
	}
	ctx, cancel := context.WithCancel(g.base)
	c = &call[V]{done: make(chan struct{}), waiters: 1, cancel: cancel}
	g.calls[key] = c
	g.leaders.Add(1)
	go g.lead(ctx, key, c, fn)
	return c, v, Led
}

// lead runs fn and publishes its result. Keeping the value and removing
// the call share one critical section, so a finished key is never
// briefly absent from both.
func (g *Group[K, V]) lead(ctx context.Context, key K, c *call[V], fn func(context.Context) (V, error)) {
	defer g.leaders.Done()
	defer c.cancel()
	v, err := fn(ctx)
	g.mu.Lock()
	c.val, c.err, c.aborted = v, err, err != nil && ctx.Err() != nil
	delete(g.calls, key)
	if err == nil && g.keep {
		g.kept[key] = v
	}
	g.mu.Unlock()
	close(c.done)
}

// leave drops one waiter; the last one out cancels the leader (a no-op
// once it has finished).
func (g *Group[K, V]) leave(c *call[V]) {
	g.mu.Lock()
	c.waiters--
	last := c.waiters == 0
	g.mu.Unlock()
	if last {
		c.cancel()
	}
}

// Wait blocks until every leader started so far has returned.
func (g *Group[K, V]) Wait() { g.leaders.Wait() }

// Waiters reports how many callers wait on key's running leader.
func (g *Group[K, V]) Waiters(key K) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c := g.calls[key]; c != nil {
		return c.waiters
	}
	return 0
}

// Values returns a copy of the kept values.
func (g *Group[K, V]) Values() map[K]V {
	g.mu.Lock()
	defer g.mu.Unlock()
	return maps.Clone(g.kept)
}

package memo

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// When the only waiter leaves, its leader's context is cancelled and
// the leader exits; the waiter gets its own ctx.Err().
func TestLastWaiterLeavingCancelsLeader(t *testing.T) {
	g := New[string, int](context.Background(), true)
	started := make(chan struct{})
	cancelled := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, "k", func(lctx context.Context) (int, error) {
			close(started)
			<-lctx.Done()
			close(cancelled)
			return 0, lctx.Err()
		})
		errc <- err
	}()
	<-started
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	<-cancelled
	g.Wait()
	if n := len(g.Values()); n != 0 {
		t.Fatalf("aborted leader kept %d values", n)
	}
}

// A waiter that joins a leader after its last previous waiter left
// (so the leader is aborted) retries with a fresh leader instead of
// inheriting the abort.
func TestLiveWaiterRetriesAfterAbortedLeader(t *testing.T) {
	g := New[string, int](context.Background(), false)
	var calls atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	fn := func(lctx context.Context) (int, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-lctx.Done()
			<-release // hold the aborted leader until the second waiter joined
			return 0, lctx.Err()
		}
		return 42, nil
	}

	ctxA, cancelA := context.WithCancel(context.Background())
	errA := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctxA, "k", fn)
		errA <- err
	}()
	<-started
	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("first waiter err = %v, want context.Canceled", err)
	}

	type result struct {
		v   int
		out Outcome
		err error
	}
	resB := make(chan result, 1)
	go func() {
		v, out, err := g.Do(context.Background(), "k", fn)
		resB <- result{v, out, err}
	}()
	waitFor(t, "the second waiter to join the aborted leader", func() bool { return g.Waiters("k") == 1 })
	close(release)
	r := <-resB
	if r.err != nil || r.v != 42 || r.out != Led {
		t.Fatalf("retrying waiter got (%d, %v, %v), want (42, Led, nil)", r.v, r.out, r.err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("fn ran %d times, want 2 (aborted leader + retry)", n)
	}
	g.Wait()
}

// One waiter's expiring deadline neither cancels the leader nor fails
// the other waiter.
func TestWaiterDeadlineDoesNotCancelOthers(t *testing.T) {
	g := New[string, int](context.Background(), true)
	started := make(chan struct{})
	release := make(chan struct{})
	var leaderErr atomic.Value
	fn := func(lctx context.Context) (int, error) {
		close(started)
		<-release
		leaderErr.Store(lctx.Err() == nil)
		return 7, nil
	}
	resA := make(chan error, 1)
	var vA int
	go func() {
		var err error
		vA, _, err = g.Do(context.Background(), "k", fn)
		resA <- err
	}()
	<-started
	ctxB, cancelB := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancelB()
	if _, out, err := g.Do(ctxB, "k", fn); !errors.Is(err, context.DeadlineExceeded) || out != Joined {
		t.Fatalf("impatient waiter got (%v, %v), want (Joined, deadline exceeded)", out, err)
	}
	close(release)
	if err := <-resA; err != nil || vA != 7 {
		t.Fatalf("patient waiter got (%d, %v), want (7, nil)", vA, err)
	}
	if live, _ := leaderErr.Load().(bool); !live {
		t.Fatal("leader context was cancelled while a waiter remained")
	}
	g.Wait()
}

// Many goroutines hammering a few keys of a keeping group run fn once
// per key, and every caller sees the same value.
func TestKeptValuesComputedOnce(t *testing.T) {
	g := New[int, int](context.Background(), true)
	const keys, workers, rounds = 3, 32, 50
	var calls [keys]atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (w + i) % keys
				v, _, err := g.Do(context.Background(), k, func(context.Context) (int, error) {
					calls[k].Add(1)
					return k * 10, nil
				})
				if err != nil || v != k*10 {
					t.Errorf("key %d: got (%d, %v)", k, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	g.Wait()
	for k := range calls {
		if n := calls[k].Load(); n != 1 {
			t.Errorf("key %d computed %d times, want 1", k, n)
		}
	}
	if n := len(g.Values()); n != keys {
		t.Fatalf("kept %d values, want %d", n, keys)
	}
}

// A group that does not keep values recomputes a key once its leader
// has finished, and never keeps an error.
func TestUnkeptGroupRecomputes(t *testing.T) {
	g := New[string, int](context.Background(), false)
	var calls atomic.Int32
	fn := func(context.Context) (int, error) { return int(calls.Add(1)), nil }
	for want := 1; want <= 2; want++ {
		if v, out, err := g.Do(context.Background(), "k", fn); err != nil || v != want || out != Led {
			t.Fatalf("call %d got (%d, %v, %v)", want, v, out, err)
		}
	}
	boom := errors.New("boom")
	if _, _, err := g.Do(context.Background(), "e", func(context.Context) (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := len(g.Values()); n != 0 {
		t.Fatalf("unkept group holds %d values", n)
	}
}

// Wait does not return while an abandoned leader is still running, and
// once it returns every leader has exited.
func TestWaitOutlastsAbandonedLeaders(t *testing.T) {
	g := New[int, int](context.Background(), false)
	release := make(chan struct{})
	var exited atomic.Int32
	const n = 4
	for k := 0; k < n; k++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		// Every caller is gone before its leader could finish.
		_, _, _ = g.Do(ctx, k, func(context.Context) (int, error) {
			defer exited.Add(1)
			<-release
			return k, nil
		})
	}
	waited := make(chan struct{})
	go func() {
		g.Wait()
		close(waited)
	}()
	select {
	case <-waited:
		t.Fatal("Wait returned while leaders were still running")
	default:
	}
	close(release)
	<-waited
	if got := exited.Load(); got != n {
		t.Fatalf("%d/%d leaders exited before Wait returned", got, n)
	}
}

// A group whose base context ends aborts its leaders, and waiters get
// the leader's error instead of retrying forever.
func TestBaseCancelStopsRetries(t *testing.T) {
	base, cancel := context.WithCancel(context.Background())
	g := New[string, int](base, false)
	started := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, _, err := g.Do(context.Background(), "k", func(lctx context.Context) (int, error) {
			close(started)
			<-lctx.Done()
			return 0, lctx.Err()
		})
		errc <- err
	}()
	<-started
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the aborted leader's context.Canceled", err)
	}
	g.Wait()
}

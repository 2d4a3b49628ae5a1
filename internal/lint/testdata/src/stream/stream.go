// Package stream is a chanclose fixture reproducing the exact
// stream-writer shutdown race the rule exists for: the serving path's
// pre-fix shape closed the writer's frame channel during teardown
// while the drain path's goodbye goroutine could still be sending on
// it — a send on a closed channel panics. The shipped fix (the writer
// type below) never closes the channel; the final frame is a sentinel
// value and the writer owns the whole lifecycle.
package stream

type frame struct {
	payload  []byte
	sentinel bool
}

// racer is the pre-fix shape. teardown closes out, but goodbye spawns
// a goroutine whose enqueue can still send on out — close and send
// race.
type racer struct {
	out  chan frame
	done chan struct{}
}

func newRacer() *racer {
	return &racer{out: make(chan frame, 8), done: make(chan struct{})}
}

func (r *racer) enqueue(f frame) {
	select {
	case r.out <- f:
	case <-r.done:
	}
}

// goodbye flushes a farewell frame from its own goroutine, exactly
// like the drain path does for every live connection.
func (r *racer) goodbye() {
	go func() {
		r.enqueue(frame{payload: []byte("goodbye")})
	}()
}

func (r *racer) writeLoop() {
	for range r.out {
	}
}

func (r *racer) teardown() {
	close(r.out) // want `chanclose: close of channel "out" can race the send`
	close(r.done)
}

// writer is the post-fix shape: out is deliberately never closed; a
// sentinel frame tells writeLoop to exit, so the channel's lifecycle
// has a single owner and no close/send race exists. This must produce
// no finding.
type writer struct {
	out        chan frame
	writerDone chan struct{}
}

func newWriter() *writer {
	return &writer{out: make(chan frame, 8), writerDone: make(chan struct{})}
}

func (w *writer) enqueue(f frame) {
	select {
	case w.out <- f:
	case <-w.writerDone:
	}
}

func (w *writer) goodbye() {
	go func() {
		w.enqueue(frame{sentinel: true})
	}()
}

func (w *writer) writeLoop() {
	defer close(w.writerDone)
	for f := range w.out {
		if f.sentinel {
			return
		}
	}
}

func (w *writer) run() {
	go w.writeLoop()
	w.enqueue(frame{payload: []byte("hello")})
	w.goodbye()
}

// tokens is the producer-closes-its-own-channel idiom: the spawned
// producer sends every value and then closes the channel itself, so
// close and send are ordered by one goroutine. This must produce no
// finding.
func tokens(n int) <-chan int {
	ch := make(chan int)
	go func() {
		for i := 0; i < n; i++ {
			ch <- i
		}
		close(ch)
	}()
	return ch
}

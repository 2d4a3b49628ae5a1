package telemetry

import "sync"

// SinkOptions configures a Sink.
type SinkOptions struct {
	// Decimate keeps 1 in N published samples (default 1 = keep all);
	// dropped samples are counted but not fanned out. Decimation is
	// what keeps live sampling cheap at high slice rates (Pac-Sim-style
	// observability at acceptable overhead).
	Decimate int
}

// Sink is a multi-subscriber stream of machine samples. One producer
// (the simulated machine) publishes a Sample per accounting slice; any
// number of subscribers receive the decimated stream. Publish is
// allocation-free.
//
// A nil *Sink ignores all calls.
type Sink struct {
	mu        sync.Mutex
	decimate  int
	published uint64          // total offered, pre-decimation
	subs      []*subscription // immutable slice: copied on (un)subscribe
}

type subscription struct {
	fn func(Sample)
}

// NewSink returns a sink with the given options.
func NewSink(opt SinkOptions) *Sink {
	if opt.Decimate <= 0 {
		opt.Decimate = 1
	}
	return &Sink{decimate: opt.Decimate}
}

// Subscribe registers fn to receive every kept sample and returns an
// unsubscribe function. fn is called synchronously from Publish; keep
// it cheap.
func (s *Sink) Subscribe(fn func(Sample)) (unsubscribe func()) {
	if s == nil || fn == nil {
		return func() {}
	}
	sub := &subscription{fn: fn}
	s.mu.Lock()
	subs := make([]*subscription, len(s.subs)+1)
	copy(subs, s.subs)
	subs[len(subs)-1] = sub
	s.subs = subs
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		subs := make([]*subscription, 0, len(s.subs))
		for _, x := range s.subs {
			if x != sub {
				subs = append(subs, x)
			}
		}
		s.subs = subs
	}
}

// Publish offers one sample to the sink's subscribers. Samples dropped
// by decimation are counted but not fanned out.
func (s *Sink) Publish(sample Sample) {
	if s == nil {
		return
	}
	s.mu.Lock()
	n := s.published
	s.published++
	if s.decimate > 1 && n%uint64(s.decimate) != 0 {
		s.mu.Unlock()
		return
	}
	subs := s.subs // immutable snapshot
	s.mu.Unlock()
	for _, sub := range subs {
		sub.fn(sample)
	}
}
